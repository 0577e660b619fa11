// The shard wire: workers hold one connection per parameter-server shard
// and push/pull against all shards concurrently. Every frame carries a
// versioned shard-aware header. A single server (NewServer) is the
// one-shard case, dialed by unplaced clients (DialTimeoutDialer): shard 0,
// placement hash 0.
//
//	shard header := [1B version=5][1B flags][2B LE shard][4B LE worker][4B LE step]
//	hello        := header (step = 0) [4B LE assignment hash]
//	entry        := [uvarint zigzag(slot − prev − 1)][uvarint len][tensor wire]
//	pushRun      := header {entry}                (more runs of the push follow)
//	pushLast     := header {entry}                (the push's last run; may be empty)
//	pullRun      := header (worker = 0) {entry}
//	bye          := header (step = 0)
//
// Every push and every pull is a stream of runs: a run is one header,
// then per tensor its shard-local slot as a delta from the run's previous
// one (prev is −1 before a run's first entry) and its wire's length, both
// uvarints. A push is runs ending in its pushLast; a pull is runs until
// each of the shard's tensors has arrived once, which the worker knows
// from its placement. A sender closes and writes a run on two occasions
// only: flushBytes have gathered in it, and its stream ends. So where a
// stream splits into runs depends on its sequence of wires alone, never on
// how fast its producer made them: a push of small tensors is one run a
// shard, a header and about three bytes a tensor. Each receiver reads a
// stream's runs whole, each into a buffer of its own, validates every slot
// exactly once, and only then applies it (seq): the server hands the push
// to its aggregator, the worker applies or returns the pull, and a stream
// that fails or is cut off applies nothing.
//
// (ShardWireVersion counts generations of this layout: 3 since the owner
// is sent the empty wire in its owner-only slots, ps.Pulls; 4 since a
// streamed exchange sends a run per flush; 5 since the owner pushes the
// update of its owner-only tensors and the servers relay it.)
//
// A connection is plain or resilient, and its hello says which. A plain
// connection emits and accepts exactly the lines above. A resilient one
// (hello flags FlagChecksum|FlagResilient, every later header
// FlagChecksum) ends every frame, hello included, in a CRC-32C trailer,
// [4B LE crc] (checksum.go) — last, so it covers what is on the wire,
// header and body alike — and its client may tear down and re-dial mid-run,
// replaying the in-flight step's push from its first run; the session
// dedupes replays on the (worker, step) identity and re-answers missed
// pulls from the retained pull. A hello with any other flags is refused.
// The values of retired wire features stay reserved (codec.go).
package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"threelc/internal/shard"
)

// Frame types. Type bytes 1–3 are reserved (codec.go).
const (
	MsgShardHello MsgType = iota + 4
	// Type bytes 5–11 are reserved (codec.go).
	_
	_
	_
	_
	_
	_
	_
	// MsgShardBye is a resilient client's positive end-of-run signal
	// (header + checksum trailer, no body): after applying the final
	// step's pull it tells the server its seat can be retired. A plain
	// EOF is not enough on a resilient connection — the client may have
	// closed because the final pull failed its checksum and be about to
	// reconnect and replay.
	MsgShardBye
	// MsgShardPushRun carries one flush of a worker's push: the header,
	// then an entry per tensor (see frames.putEntry); more runs of the
	// push follow.
	MsgShardPushRun
	// MsgShardPushLast is the last run of a push, the same layout; it may
	// hold no entry at all.
	MsgShardPushLast
	// MsgShardPullRun carries one flush of the pull, the same layout; the
	// worker knows its shard's tensor count and reads runs until each
	// tensor has arrived once.
	MsgShardPullRun
)

// ShardServerConfig sizes one shard's transport endpoint.
type ShardServerConfig struct {
	// Shard is this server's shard id.
	Shard int
	// NumShards is the deployment's total shard count. The server reads
	// nothing from it: the placement hash a hello vouches for covers it.
	NumShards int
	// Workers is the number of workers to accept.
	Workers int
	// Steps is the BSP step count to run.
	Steps int
	// AssignmentHash is the expected placement checksum
	// (shard.Assignment.Hash); hellos carrying a different hash are
	// rejected so a worker with a divergent model layout fails fast
	// instead of decoding tensors into the wrong slots.
	AssignmentHash uint32
	// Timeouts bounds each frame read and each flush in the step loop. The
	// read deadline must cover a full compute phase (a BSP push read
	// spans the barrier, not a round trip); zero disables deadlines.
	Timeouts Timeouts
	// Resilient accepts FlagResilient clients and keeps their worker
	// seats open across connection failures: malformed handshakes no
	// longer abort Serve, a broken resilient connection is replaced by
	// re-accepting the worker's reconnect, replayed pushes are deduped on
	// the (worker, step) identity, and missed pulls are re-answered from
	// the retained pull. After the final step the server lingers until
	// every resilient worker confirms with MsgShardBye (or its reconnect
	// window lapses), so a worker whose final pull was corrupted can
	// still recover it. Timeouts.Read bounds each reconnect wait (5s when
	// zero) and must exceed the clients' worst-case retry backoff.
	Resilient bool
}

// ShardServer drives one parameter-server shard (a ps sub-job, see
// shard.SubServers) over real connections with BSP semantics.
type ShardServer struct {
	traffic
	agg StepServer
	cfg ShardServerConfig
	ln  net.Listener
}

// NewShardServer wraps agg — the ps sub-job owning this shard's tensors,
// or an aggregator in front of one — to serve cfg.Workers workers for
// cfg.Steps steps on ln. What agg offers beyond StepServer decides what the
// owner's seat is sent: *ps.Job sends the owner its view of the pull.
func NewShardServer(ln net.Listener, agg StepServer, cfg ShardServerConfig) *ShardServer {
	return &ShardServer{agg: agg, cfg: cfg, ln: ln}
}

// NewServer serves agg to `workers` unplaced clients (DialTimeoutDialer)
// for `steps` steps on ln: a one-shard ShardServer whose placement hash is
// 0. It offers its seats what a StepServer alone offers, whatever else agg
// implements: the shared pull to every seat, the owner's too. So the bytes
// it moves do not depend on agg's surface.
func NewServer(ln net.Listener, agg StepServer, workers, steps int) *ShardServer {
	return NewShardServer(ln, struct{ StepServer }{agg}, ShardServerConfig{NumShards: 1, Workers: workers, Steps: steps})
}

// Serve seats the configured workers, runs their session for cfg.Steps
// steps, and closes the connections and the listener: a resilient client
// that redials once the session is over is refused, and fails within its
// retry policy, instead of connecting into a backlog no one accepts from
// and waiting for a pull no one sends.
func (s *ShardServer) Serve() error {
	defer s.ln.Close()
	ss := newSession(s.agg, s.cfg, s.ln, &s.traffic)
	defer ss.close()
	if err := ss.fill(); err != nil {
		return err
	}
	return ss.run()
}

// ShardClientConfig tunes a worker's sharded connections.
type ShardClientConfig struct {
	// Timeouts bounds each frame read and each flush. A read deadline is the
	// failure detector for silently dead shards: without one, a shard that
	// stops answering without closing its connection parks PushPull.
	Timeouts Timeouts
	// Resilient makes every frame both ways carry a CRC-32C trailer over
	// what is on the wire (FlagChecksum), so corruption anywhere on the path
	// surfaces as an error instead of silently skewing the aggregate, and
	// makes dial and push/pull failures recoverable in place: on any error
	// the client backs off per Retry, re-dials the SAME shard address,
	// re-handshakes with FlagResilient, and replays the in-flight step's
	// push; the server (ShardServerConfig.Resilient) dedupes the replay and
	// re-answers the missed pull from its retained pull. At Close the
	// client confirms with MsgShardBye so the server can retire its seat.
	Resilient bool
	// Retry is the resilient path's backoff schedule, for the first dial as
	// for every redial; the zero value is the retry.Policy default (4
	// attempts, 50ms base, 2s cap, 2x). Each shard's connection draws from
	// a decorrelated jitter stream derived from it.
	Retry RetryPolicy
	// Dialer overrides how shard connections (and reconnects) are opened;
	// nil means plain TCP. The chaos/fault-injection hook.
	Dialer Dialer
}

// ShardClient is a worker's multiplexed view of the sharded tier: one
// connection per shard. An exchange queues the push on its shards'
// connections from the calling goroutine (push, endPush) and receives the
// shards' pulls concurrently (pullAll).
type ShardClient struct {
	asn   shard.Assignment
	ccfg  ShardClientConfig
	idx   [][]int // per-shard global tensor indices, fixed at dial time
	slot  []int   // global tensor index -> shard-local index
	conns []*shardConn
	pull  [][]byte // the last pull in full-model order, aliasing the connections' runs
	errs  []error  // pullAll's per-shard outcome
}

type shardConn struct {
	Client
	addr   string      // the shard's address, the resilient reconnect target
	policy RetryPolicy // per-worker, per-shard decorrelated backoff stream
	seen   []bool      // seen[k]: shard-local tensor k is pushed in the exchange in progress
}

// DialShardedConfig connects to every shard of the tier (addrs[s] is shard
// s's address) and registers as workerID, on plain or resilient
// connections with I/O deadlines (see ShardClientConfig); a resilient
// client dials each shard under its retry stream, one per (worker, shard)
// pair, so workers that lose a shard together do not redial in lockstep.
// The placement asn must be the one the server tier was built with —
// typically shard.ForModel on the worker's model replica; its hash is
// verified during the handshake.
func DialShardedConfig(addrs []string, workerID int, asn shard.Assignment, ccfg ShardClientConfig) (*ShardClient, error) {
	if len(addrs) != asn.NumShards {
		return nil, fmt.Errorf("transport: %d shard addresses for %d shards", len(addrs), asn.NumShards)
	}
	fc := frameCodec{worker: uint32(workerID), resilient: ccfg.Resilient}
	c := &ShardClient{
		asn:  asn,
		ccfg: ccfg,
		idx:  make([][]int, asn.NumShards),
		slot: make([]int, len(asn.ShardOf)),
		pull: make([][]byte, len(asn.ShardOf)),
		errs: make([]error, asn.NumShards),
	}
	for s := range c.idx {
		c.idx[s] = asn.Tensors(s)
		for k, gi := range c.idx[s] {
			c.slot[gi] = k
		}
	}
	for s, addr := range addrs {
		// A resilient connection keeps the step's push for a replay, so it
		// copies every wire: a float32 wire is the worker's gradient.
		sc := &shardConn{Client: Client{link: link{to: ccfg.Timeouts, fc: fc, out: frames{flat: ccfg.Resilient}}}, addr: addr,
			policy: ccfg.Retry.Stream(uint64(workerID)<<32 | uint64(s)), seen: make([]bool, len(c.idx[s]))}
		sc.fc.shard = uint16(s)
		if err := c.retry(sc, nil); err != nil {
			c.Close() // closes what was dialed
			return nil, err
		}
		c.conns = append(c.conns, sc)
	}
	return c, nil
}

// PushPull is the exchange of a whole set: every shard is pushed its slice
// of the worker's full-model wire set as one stream of runs, and the
// shards' pulls come back in full-model tensor order. The returned wires
// alias the connections' receive buffers, recycled on the next exchange
// (the same lifetime contract as Client.PushPull).
func (c *ShardClient) PushPull(step int, wires [][]byte) ([][]byte, error) {
	if len(wires) != len(c.asn.ShardOf) {
		return nil, fmt.Errorf("transport: push has %d tensors, placement has %d", len(wires), len(c.asn.ShardOf))
	}
	var err error
	for gi, w := range wires {
		if err = c.push(step, gi, w); err != nil {
			break
		}
	}
	if err = c.finish(step, err, keepPull, nil); err != nil {
		return nil, err
	}
	return c.pull, nil
}

// push checks global tensor gi against the placement and the exchange's
// earlier tensors, then queues its wire on its shard's connection, which
// writes the open run once flushBytes have gathered (Client.put).
//
//3lc:noalloc
func (c *ShardClient) push(step, gi int, wire []byte) error {
	if gi < 0 || gi >= len(c.slot) {
		return fmt.Errorf("transport: streamed tensor index %d out of range (placement has %d tensors)", gi, len(c.slot))
	}
	s, k := c.asn.ShardOf[gi], c.slot[gi]
	sc := c.conns[s]
	if sc.seen[k] {
		return fmt.Errorf("transport: tensor %d streamed twice in step %d", gi, step)
	}
	sc.seen[k] = true
	if err := sc.put(step, k, wire); err != nil {
		return fmt.Errorf("transport: shard %d push step %d: %w", s, step, err)
	}
	return nil
}

// endPush ends step's push on every shard: its last run, written. A
// resilient connection keeps a failed write as its fault (flushPush),
// which pullAll's retry answers with a redial and a replay.
//
//3lc:noalloc
func (c *ShardClient) endPush(step int) error {
	for s, sc := range c.conns {
		sc.out.endRun(&sc.fc, MsgShardPushLast, uint32(step))
		if err := sc.flushPush(); err != nil {
			return fmt.Errorf("transport: shard %d push step %d: %w", s, step, err)
		}
	}
	return nil
}

// finish completes an exchange whose push went as far as err says: ends
// the push, closes pushed, if set — every wire is then written, or copied
// into a resilient connection's replay — and receives the pull, and then
// drops what the push left queued. A push that failed (err) is dropped
// unended, with nothing received.
func (c *ShardClient) finish(step int, err error, apply func(gi int, wire []byte) error, pushed chan<- struct{}) error {
	if err == nil {
		err = c.endPush(step)
	}
	if pushed != nil {
		close(pushed)
	}
	if err == nil {
		err = c.pullAll(step, apply)
	}
	for _, sc := range c.conns {
		sc.reset()
		clear(sc.seen)
	}
	return err
}

// pullAll receives step's pull from every shard and applies it, tensor by
// tensor, once it has arrived whole. Shards 1…N−1 are received on
// goroutines of their own while the caller receives shard 0, then joins
// them: one shard's redial backoff must not use up another server's
// reacquire window. One shard spawns nothing, so the one-shard exchange
// allocates nothing.
func (c *ShardClient) pullAll(step int, apply func(gi int, wire []byte) error) error {
	if len(c.conns) == 1 {
		return c.pullShard(step, 0, apply)
	}
	var wg sync.WaitGroup
	wg.Add(len(c.conns) - 1)
	for s := 1; s < len(c.conns); s++ {
		go func() {
			defer wg.Done()
			c.errs[s] = c.pullShard(step, s, apply)
		}()
	}
	err := c.pullShard(step, 0, apply)
	wg.Wait()
	for _, serr := range c.errs[1:] {
		if err == nil {
			err = serr
		}
	}
	return err
}

// pullShard receives shard s's pull of step into c.pull under retry — a
// resilient client whose connection failed at any point of the exchange
// redials and replays the push from its first run — and applies it.
func (c *ShardClient) pullShard(step, s int, apply func(gi int, wire []byte) error) error {
	sc := c.conns[s]
	if err := c.retry(sc, func() error { return sc.pullAfter(step, len(c.idx[s])) }); err != nil {
		return fmt.Errorf("transport: shard %d step %d: %w", s, step, err)
	}
	for k, gi := range c.idx[s] {
		c.pull[gi] = sc.pulled.wires[k]
		if err := apply(gi, c.pull[gi]); err != nil {
			return err
		}
	}
	return nil
}

// retry runs op on sc's connection, dialing the shard first when it has
// none (op nil: the dial is all there is to do). On a resilient client a
// failure is recovered in place: hang up, back off per the shard's
// decorrelated retry stream, re-dial, re-handshake and run op again. An
// exchange's op so replays its step's push; the server kept the seat,
// dedupes the replay on the (worker, step) identity and re-answers the
// missed pull from its retained pull. The attempt budget is the policy's;
// exhausting it surfaces the last error.
func (c *ShardClient) retry(sc *shardConn, op func() error) error {
	for attempt := 0; ; attempt++ {
		var err error
		if sc.c == nil {
			err = sc.open(c.ccfg.Dialer, sc.addr, c.asn.Hash())
		}
		if err == nil && op != nil {
			err = op()
		}
		if err == nil || !c.ccfg.Resilient {
			return err
		}
		if attempt+1 >= sc.policy.Attempts() {
			return fmt.Errorf("transport: shard %d: retry budget exhausted: %w", sc.fc.shard, err)
		}
		if sc.c != nil {
			sc.c.Close()
			sc.c = nil
		}
		time.Sleep(sc.policy.Backoff(attempt))
	}
}

// IndexedWire is one tensor's compressed wire tagged with its global
// tensor index, the unit of the streamed push/pull pipeline.
type IndexedWire struct {
	I    int
	Wire []byte
}

// PushPullStream runs one step with the push fed tensor by tensor.
// Tensors arriving on `tensors` (any order — typically straight from a
// concurrent compressor, ps.Worker.CompressGradsStream) are queued on
// their owning shard's connection as they arrive, and a shard's queued
// tensors are written, as one run, when flushBytes of them have gathered
// and when the push ends (see the package comment): the runs are the same
// however the producer is paced. The caller must send every tensor
// exactly once (an empty Wire for non-transmitting schemes) and close the
// channel; wires must stay valid until the call returns. An index out of
// range or sent twice fails the call before anything of it is framed, and
// whatever fails, the call receives from `tensors` until it is closed, so
// a producer is never left blocked on it.
//
// Each shard's pull is received whole, then apply is invoked once per
// tensor of it — concurrently across shards. apply must be safe for
// concurrent calls on different tensors (ps.Worker.ApplyPullTensor is);
// its wire argument stays valid until the next exchange.
func (c *ShardClient) PushPullStream(step int, tensors <-chan IndexedWire, apply func(gi int, wire []byte) error) error {
	return c.stream(step, tensors, apply, nil)
}

// stream is PushPullStream, closing pushed, if set, once every shard's
// push has ended: each wire is then written, or copied into a resilient
// connection's replay.
func (c *ShardClient) stream(step int, tensors <-chan IndexedWire, apply func(gi int, wire []byte) error, pushed chan<- struct{}) error {
	var err error
	for iw := range tensors {
		if err == nil { // once failed, only keeping the producer from blocking
			err = c.push(step, iw.I, iw.Wire)
		}
	}
	return c.finish(step, err, apply, pushed)
}

// Close terminates all shard connections. A resilient client first
// confirms each with MsgShardBye (best-effort): a bare close is ambiguous
// to a resilient server — it cannot tell a finished worker from one about
// to reconnect — so the bye lets it retire the seat immediately instead of
// holding it open for the reacquire window.
func (c *ShardClient) Close() error {
	var first error
	for _, sc := range c.conns {
		if sc.c == nil {
			continue // its last redial failed: nothing to confirm or close
		}
		if c.ccfg.Resilient {
			_ = sc.send(frame{t: MsgShardBye}) // best-effort: the close below is what must happen
		}
		if err := sc.c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
