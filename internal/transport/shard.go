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
// from its placement. A sender closes and writes a run on three occasions
// only: flushBytes have gathered in it, its stream ends, and — on a push
// fed tensor by tensor (PushPullStream) — the producer has nothing more
// ready, so a producer slower than the wire still gets tensor i out before
// tensor i+1 exists. A producer that is ahead of the wire — a burst of
// small tensors, a single CPU, a whole set — pays one run per shard, a
// header and about three bytes a tensor. Each receiver reads a stream's
// runs whole, each into a buffer of its own, validates every slot exactly
// once, and only then applies it (seq): the server hands the push to its
// aggregator, the worker applies or returns the pull, and a stream that
// fails or is cut off applies nothing.
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
// connection per shard, pushed to and pulled from concurrently.
type ShardClient struct {
	asn   shard.Assignment
	ccfg  ShardClientConfig
	idx   [][]int // per-shard global tensor indices, fixed at dial time
	slot  []int   // global tensor index -> shard-local index
	conns []*shardConn
	pull  [][]byte // the last pull in full-model order, aliasing the connections' runs
	errs  []error
	// An exchange's shard goroutines, and whether its tensors broke
	// PushPullStream's contract (set before the shard channels close, read
	// by streamShard after).
	wg, pushing sync.WaitGroup
	abandoned   bool
}

type shardConn struct {
	Client
	addr   string      // the shard's address, the resilient reconnect target
	policy RetryPolicy // per-worker, per-shard decorrelated backoff stream
	dirty  bool        // streamed push: tensors routed here since the last flush mark
	// seen[k] marks shard-local tensor k pushed, while PushPullStream
	// routes the caller's tensors.
	seen []bool
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
// of the worker's full-model wire set as one stream of runs, concurrently,
// and the shards' pulls come back in full-model tensor order. The returned
// wires alias the connections' receive buffers, recycled on the next
// exchange (the same lifetime contract as Client.PushPull).
func (c *ShardClient) PushPull(step int, wires [][]byte) ([][]byte, error) {
	if len(wires) != len(c.asn.ShardOf) {
		return nil, fmt.Errorf("transport: push has %d tensors, placement has %d", len(wires), len(c.asn.ShardOf))
	}
	var err error
	if len(c.conns) == 1 {
		// Single-shard fast path: no channel or goroutine, so the steady
		// state stays allocation-free.
		err = c.pushPullShard(step, 0, c.conns[0], wires)
	} else {
		ch := make(chan IndexedWire, len(wires))
		for i, w := range wires {
			ch <- IndexedWire{I: i, Wire: w}
		}
		close(ch)
		err = c.stream(step, ch, keepPull, nil)
	}
	if err != nil {
		return nil, err
	}
	return c.pull, nil
}

// pushPullShard is shard s's part of PushPull: its slice of wires as one
// push, then its pull.
//
//3lc:noalloc
func (c *ShardClient) pushPullShard(step, s int, sc *shardConn, wires [][]byte) error {
	for k, gi := range c.idx[s] {
		if err := sc.put(step, k, wires[gi]); err != nil {
			sc.reset()
			return fmt.Errorf("transport: shard %d push step %d: %w", s, step, err)
		}
	}
	return c.finish(step, s, sc)
}

// finish ends the push queued on shard s's connection and receives the
// step's pull into c.pull, under retry: a resilient client whose
// connection failed at any point of the exchange redials and replays the
// push from its first run.
func (c *ShardClient) finish(step, s int, sc *shardConn) error {
	defer sc.reset()
	sc.out.endRun(&sc.fc, MsgShardPushLast, uint32(step))
	if err := c.retry(sc, func() error { return sc.pullAfter(step, len(c.idx[s])) }); err != nil {
		return fmt.Errorf("transport: shard %d step %d: %w", s, step, err)
	}
	for k, gi := range c.idx[s] {
		c.pull[gi] = sc.pulled.wires[k]
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

// flushMark is the tensor index PushPullStream sends down a shard's
// channel when the caller's tensor channel has run empty: everything
// routed so far is all there is for now, so the shard must not sit on it.
const flushMark = -1

// PushPullStream runs one step with the push fed tensor by tensor.
// Tensors arriving on `tensors` (any order — typically straight from a
// concurrent compressor, ps.Worker.CompressGradsStream) are queued on
// their owning shard's connection as they arrive, so the servers receive
// tensor i while tensor i+1 is still compressing. A shard's queued tensors
// are written, as one run, when `tensors` runs empty, when flushBytes of
// them have gathered and when the push ends (see the package comment): a
// tensor never waits for one the producer has not made yet, and a producer
// that is ahead pays one run per shard. The caller must send every tensor
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
	chans := make([]chan IndexedWire, len(c.conns))
	for s, sc := range c.conns {
		clear(sc.seen)
		// Every tensor of the shard once, and at most one flush mark behind
		// each: the router below never blocks on a shard.
		chans[s] = make(chan IndexedWire, 2*len(c.idx[s]))
		c.wg.Add(1)
		c.pushing.Add(1)
		go func(s int, sc *shardConn, ch <-chan IndexedWire) {
			defer c.wg.Done()
			c.errs[s] = c.streamShard(step, s, sc, ch, apply)
		}(s, sc, chans[s])
	}
	var err error
	for {
		var iw IndexedWire
		var ok bool
		select {
		case iw, ok = <-tensors:
		default:
			// The producer is behind: flush what each shard holds, then wait.
			for s, sc := range c.conns {
				if sc.dirty {
					sc.dirty = false
					chans[s] <- IndexedWire{I: flushMark}
				}
			}
			iw, ok = <-tensors
		}
		if !ok {
			break
		}
		if err != nil {
			continue // failed: only keeping the producer from blocking
		}
		if iw.I < 0 || iw.I >= len(c.slot) {
			err = fmt.Errorf("transport: streamed tensor index %d out of range (placement has %d tensors)", iw.I, len(c.slot))
			continue
		}
		s := c.asn.ShardOf[iw.I]
		sc := c.conns[s]
		if sc.seen[c.slot[iw.I]] {
			err = fmt.Errorf("transport: tensor %d streamed twice in step %d", iw.I, step)
			continue
		}
		sc.seen[c.slot[iw.I]], sc.dirty = true, true
		chans[s] <- iw
	}
	c.abandoned = err != nil
	for _, ch := range chans {
		close(ch)
	}
	if pushed != nil {
		c.pushing.Wait()
		close(pushed)
	}
	c.wg.Wait()
	for _, serr := range c.errs {
		if err == nil {
			err = serr
		}
	}
	return err
}

// streamShard drives one shard connection through a streamed step: the
// push — a run of the tensors routed here, flushed at each flush mark and
// past flushBytes, its last run flushed at the end — then the pull,
// received whole (finish), then applied tensor by tensor.
func (c *ShardClient) streamShard(step, s int, sc *shardConn, ch <-chan IndexedWire, apply func(gi int, wire []byte) error) error {
	err := sc.route(step, ch, c.slot)
	c.pushing.Done()
	if err != nil {
		sc.reset()
		return fmt.Errorf("transport: shard %d push step %d: %w", s, step, err)
	}
	if c.abandoned {
		// The caller broke the stream's contract; the step cannot complete
		// and the error is PushPullStream's to report.
		sc.reset()
		return nil
	}
	if err := c.finish(step, s, sc); err != nil {
		return err
	}
	for _, gi := range c.idx[s] {
		if err := apply(gi, c.pull[gi]); err != nil {
			return err
		}
	}
	return nil
}

// route queues the tensors routed to sc as one push, writing what is
// queued at each flush mark and past flushBytes (put).
//
//3lc:noalloc
func (sc *shardConn) route(step int, ch <-chan IndexedWire, slot []int) error {
	for iw := range ch {
		var err error
		if iw.I == flushMark {
			err = sc.flushPush()
		} else {
			err = sc.put(step, slot[iw.I], iw.Wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
