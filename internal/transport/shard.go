// The shard wire: workers hold one connection per parameter-server shard
// and push/pull against all shards concurrently. Every frame carries a
// versioned shard-aware header. A single server (NewServer) is the
// one-shard case, dialed by unplaced clients (DialTimeoutDialer): shard 0,
// placement hash 0.
//
//	shard header := [1B version=5][1B flags][2B LE shard][4B LE worker][4B LE step]
//	hello        := header (step = 0) [4B LE assignment hash]
//	push         := header [wire set]
//	pull         := header (worker = 0) [wire set]
//
// (ShardWireVersion counts generations of this layout: 3 since the owner
// is sent the empty wire in its owner-only slots, ps.Pulls; 4 since a
// streamed exchange sends a run per flush, below; 5 since the owner pushes
// the update of its owner-only tensors and the servers relay it.)
//
// A connection is plain or resilient, and its hello says which. A plain
// connection emits and accepts exactly the lines above. A resilient one
// (hello flags FlagChecksum|FlagResilient, every later header
// FlagChecksum) ends every frame, hello included, in a CRC-32C trailer,
// [4B LE crc] (checksum.go) — last, so it covers what is on the wire,
// header and body alike — and its client may tear down and re-dial mid-run,
// replaying the in-flight step's push; the session dedupes replays on the
// (worker, step) identity and re-answers missed pulls from the retained
// pull. A hello with any other flags is refused. The values of retired
// wire features stay reserved (codec.go).
//
// The streamed exchange overlaps communication with codec work: a worker
// hands each tensor to its shard's connection the moment its compressor
// finishes — the shard decode-accumulates tensor i while tensor i+1 is
// still compressing or in flight — and applies the pull tensor by tensor
// as it is read. Both ends queue tensors on their link and flush on three
// occasions only: the producer has nothing more ready (so a producer
// slower than the wire still gets tensor i out before tensor i+1 exists),
// flushBytes have gathered, and the stream ends. A flush is one frame, a
// run: one header, then per tensor its shard-local slot as a delta from
// the run's previous one and its wire's length, both uvarints:
//
//	entry    := [uvarint zigzag(slot − prev − 1)][uvarint len][tensor wire]
//	pushRun  := header {entry}                (more runs of the push follow)
//	pushLast := header {entry}                (the push's last run; may be empty)
//	pullRun  := header (worker = 0) {entry}
//
// prev is −1 before a run's first entry. A producer that is ahead of the
// wire — a burst of small tensors, a single CPU — pays one run per shard,
// a header and about three bytes a tensor, not a frame per tensor; the
// server's pull, whose tensors all exist before the first is sent, pays
// one per flushBytes. Each receiver validates a run's whole entry table
// before any entry reaches an aggregator or the worker (applyRun).
//
// Whole-set and streamed workers interoperate freely on one shard: the
// mode is per worker per step, chosen by the first push frame. A resilient
// connection exchanges whole sets only (frameCodec.streamable).
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
	MsgShardPush
	MsgShardPull
	// Type bytes 7–11 are reserved (codec.go).
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
	// MsgShardPushRun carries one flush of a worker's streamed push: the
	// header, then an entry per tensor (see frames.entry). The shard
	// decode-accumulates its tensors as soon as the run has landed and
	// validated; more runs of the push follow.
	MsgShardPushRun
	// MsgShardPushLast is the last run of a streamed push, the same layout;
	// it may hold no entry at all.
	MsgShardPushLast
	// MsgShardPullRun carries one flush of the pull to a worker that pushed
	// streamed, the same layout; the worker knows its shard's tensor count
	// and reads runs until each tensor has arrived once.
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
// seats may do: *ps.Job takes per-tensor pushes and sends the owner its
// view of the pull.
func NewShardServer(ln net.Listener, agg StepServer, cfg ShardServerConfig) *ShardServer {
	return &ShardServer{agg: agg, cfg: cfg, ln: ln}
}

// NewServer serves agg to `workers` unplaced clients (DialTimeoutDialer)
// for `steps` steps on ln: a one-shard ShardServer whose placement hash is
// 0. It offers its seats what a StepServer alone offers, whatever else agg
// implements: whole-set pushes only, and the shared pull to every seat,
// the owner's too. So the bytes it moves do not depend on agg's surface.
func NewServer(ln net.Listener, agg StepServer, workers, steps int) *ShardServer {
	return NewShardServer(ln, struct{ StepServer }{agg}, ShardServerConfig{NumShards: 1, Workers: workers, Steps: steps})
}

// Serve seats the configured workers, runs their session for cfg.Steps
// steps, and closes the connections.
func (s *ShardServer) Serve() error {
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
	// re-answers the missed pull from its retained pull. Whole-set rounds
	// only (see frameCodec.streamable). At Close the client confirms with
	// MsgShardBye so the server can retire its seat.
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
	pull  [][]byte // reassembled full-model pull set, recycled
	subs  [][][]byte
	errs  []error
}

type shardConn struct {
	Client
	addr   string      // the shard's address, the resilient reconnect target
	policy RetryPolicy // per-worker, per-shard decorrelated backoff stream
	dirty  bool        // streamed push: tensors routed here since the last flush mark
	// seen[k] marks shard-local tensor k of a streamed step: pushed, while
	// PushPullStream routes the caller's tensors; then, cleared, pulled.
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
		subs: make([][][]byte, asn.NumShards),
		errs: make([]error, asn.NumShards),
	}
	for s := range c.idx {
		c.idx[s] = asn.Tensors(s)
		c.subs[s] = make([][]byte, len(c.idx[s]))
		for k, gi := range c.idx[s] {
			c.slot[gi] = k
		}
	}
	for s, addr := range addrs {
		sc := &shardConn{Client: Client{link: link{to: ccfg.Timeouts, fc: fc}}, addr: addr,
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

// PushPull splits the worker's full-model wire set by placement, pushes
// every shard's slice on its own connection concurrently, waits for all
// shard pulls, and reassembles them into full-model tensor order. The
// returned wires alias per-connection scratch recycled on the next call
// (the same lifetime contract as Client.PushPull).
func (c *ShardClient) PushPull(step int, wires [][]byte) ([][]byte, error) {
	if len(wires) != len(c.asn.ShardOf) {
		return nil, fmt.Errorf("transport: push has %d tensors, placement has %d", len(wires), len(c.asn.ShardOf))
	}
	if len(c.conns) == 1 {
		// Single-shard fast path: no goroutine fan-out, so the steady
		// state stays allocation-free.
		if err := c.pushPullShard(step, 0, c.conns[0], wires); err != nil {
			return nil, err
		}
	} else {
		var wg sync.WaitGroup
		for s, sc := range c.conns {
			wg.Add(1)
			go func(s int, sc *shardConn) {
				defer wg.Done()
				c.errs[s] = c.pushPullShard(step, s, sc, wires)
			}(s, sc)
		}
		wg.Wait()
		for _, err := range c.errs {
			if err != nil {
				return nil, err
			}
		}
	}
	for i := range c.pull {
		c.pull[i] = nil
	}
	for s, sc := range c.conns {
		for k, gi := range c.idx[s] {
			c.pull[gi] = sc.pullWires[k]
		}
	}
	return c.pull, nil
}

// retry runs op on sc's connection, dialing the shard first when it has
// none (op nil: the dial is all there is to do). On a resilient client a
// failure is recovered in place: hang up, back off per the shard's
// decorrelated retry stream, re-dial, re-handshake and run op again. A
// push/pull op so replays its step's push; the server kept the seat,
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

// pushPullShard runs one shard's round trip of one step under retry.
func (c *ShardClient) pushPullShard(step, s int, sc *shardConn, wires [][]byte) error {
	return c.retry(sc, func() error { return c.tryPushPull(step, s, sc, wires) })
}

// tryPushPull is one push/pull attempt on the current connection: the
// shard's slice of wires, one Client round trip.
//
//3lc:noalloc
func (c *ShardClient) tryPushPull(step, s int, sc *shardConn, wires [][]byte) error {
	sub := c.subs[s]
	for k, gi := range c.idx[s] {
		sub[k] = wires[gi]
	}
	_, err := sc.PushPull(step, sub)
	return err
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

// PushPullStream runs one step in streamed mode. Tensors arriving on
// `tensors` (any order — typically straight from a concurrent compressor,
// ps.Worker.CompressGradsStream) are queued on their owning shard's
// connection as they arrive, so the servers decode-accumulate tensor i
// while tensor i+1 is still compressing or in flight. A shard's queued
// tensors are written, as one run, when `tensors` runs empty, when
// flushBytes of them have gathered and when the push ends (see the
// package comment): a tensor never waits for one the producer has not made
// yet, and a producer that is ahead pays one run per shard. The caller
// must send every tensor exactly once (an empty Wire for non-transmitting
// schemes) and close the channel; wires must stay valid until the call
// returns. An index out of range or sent twice fails the call before
// anything of it is framed, and whatever fails, the call receives from
// `tensors` until it is closed, so a producer is never left blocked on it.
//
// The pull comes back as runs: apply is invoked once per tensor —
// concurrently across shards, and per shard straight off the connection's
// frame scratch once its run has validated, while the kernel's receive
// buffer takes the runs behind it. apply must be safe for concurrent calls
// on different tensors (ps.Worker.ApplyPullTensor is); its wire argument
// is valid only for the duration of the call.
func (c *ShardClient) PushPullStream(step int, tensors <-chan IndexedWire, apply func(gi int, wire []byte) error) error {
	err := c.conns[0].fc.streamable()
	if err != nil {
		for range tensors {
		}
		return err
	}
	chans := make([]chan IndexedWire, len(c.conns))
	// abandoned: the tensors broke the contract above, so no shard ends its
	// push. Set before the shard channels close, read by streamShard after.
	var abandoned bool
	var wg sync.WaitGroup
	for s, sc := range c.conns {
		clear(sc.seen)
		// Every tensor of the shard once, and at most one flush mark behind
		// each: the router below never blocks on a shard.
		chans[s] = make(chan IndexedWire, 2*len(c.idx[s]))
		wg.Add(1)
		go func(s int, sc *shardConn, ch <-chan IndexedWire) {
			defer wg.Done()
			c.errs[s] = c.streamShard(step, s, sc, ch, &abandoned, apply)
		}(s, sc, chans[s])
	}
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
	abandoned = err != nil
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, serr := range c.errs {
		if err == nil {
			err = serr
		}
	}
	return err
}

// streamShard drives one shard connection through a streamed step: the
// push — a run of the tensors routed here, flushed at each flush mark and
// past flushBytes, its last run flushed at the end — then the pull, a run
// at a time, each tensor applied straight off the frame scratch. The
// kernel's receive buffer is the second slot of that decode: the server
// wrote the runs flushBytes at a time, so the next one is already there,
// or arriving, while this one is applied.
func (c *ShardClient) streamShard(step, s int, sc *shardConn, ch <-chan IndexedWire, abandoned *bool, apply func(gi int, wire []byte) error) error {
	// However the step ends, nothing queued for it is left for the next.
	defer sc.reset()
	for iw := range ch {
		if iw.I != flushMark {
			sc.entry(MsgShardPushRun, uint32(step), c.slot[iw.I], iw.Wire)
		}
		if iw.I == flushMark || sc.out.len() >= flushBytes {
			if err := sc.flush(); err != nil {
				return fmt.Errorf("transport: shard %d push step %d: %w", s, step, err)
			}
		}
	}
	if *abandoned {
		// The caller broke the stream's contract; the step cannot complete
		// and the error is PushPullStream's to report.
		return nil
	}
	sc.endRun(MsgShardPushLast, uint32(step))
	if err := sc.flush(); err != nil {
		return fmt.Errorf("transport: shard %d push end step %d: %w", s, step, err)
	}

	clear(sc.seen)
	for got := 0; got < len(sc.seen); {
		f, err := sc.read(step, false)
		if err == nil && f.t != MsgShardPullRun {
			err = fmt.Errorf("expected pull run, got type %d", f.t)
		}
		var n int
		if err == nil {
			n, err = applyRun(f.body, sc.seen, func(slot int, wire []byte) error { return apply(c.idx[s][slot], wire) })
		}
		if err != nil {
			return fmt.Errorf("transport: shard %d pull step %d: %w", s, step, err)
		}
		got += n
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
