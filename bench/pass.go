package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
	"threelc/internal/transport"
)

// passConfig sizes one pass: one topology built from scratch, warmed up,
// driven for a fixed number of timed steps and torn down.
type passConfig struct {
	wl    *workload
	seed  uint64
	warm  int // untimed steps that close the set-up
	steps int // timed steps
	// horizon is the step count the learning-rate schedule spans.
	horizon int
	// traced records spans, installs the counting connections and
	// captures replay inputs. End-to-end metrics come from untraced
	// passes only.
	traced  bool
	capture int // steps whose gradients and wires are kept for replay
	// captureSpan is the number of timed steps the captured ones are
	// spread over. It is fixed per workload, not taken from steps, so that
	// which steps are captured, and with them every count taken over the
	// captured wires, does not depend on how many steps the host fitted
	// into the pass.
	captureSpan int
	// memStats reads runtime.MemStats (a stop-the-world) at both ends of
	// the timed window.
	memStats bool
}

// stepRec is one worker's timeline of one step, nanoseconds since the
// pass began. The untraced pass fills t0..t2, loss and slept only.
type stepRec struct {
	t0, t1 int64 // this worker's batch ready, its gradient ready
	x0, t2 int64 // every worker's gradient ready, every worker's pulled update applied
	ref    int64 // how long the reference operation took after the step (worker 0)
	loss   float64

	enc0, enc1 int64 // Worker.CompressGrads[Stream]
	px0, px1   int64 // PushPull[Stream]
	ap0, ap1   int64 // ApplyPull, or first to last ApplyPullTensor
	applyBusy  int64 // summed ApplyPullTensor time (streamed)
	slept      int64 // cumulative shaper wait on this worker's connections
	codecBytes int64 // cumulative codec wire bytes pushed and pulled
	sockBytes  int64 // cumulative socket bytes, both directions
	ioCalls    [2]int64
}

// clocks is what the clocks read at one end of worker 0's timed window:
// wall time since the pass began, the process's CPU time, the host's CPU
// accounting, and how long the shaped link has been busy.
type clocks struct {
	wall int64
	cpu  time.Duration
	host hostClock
	link time.Duration
}

func (p *pass) readClocks() clocks {
	c := clocks{wall: p.now(), cpu: cpuTime(), host: readHostClock()}
	if p.shaper != nil {
		c.link = p.shaper.busy()
	}
	return c
}

// captured is what the traced pass keeps of one step for the replay
// probes: worker 0's gradients and every wire set that crossed the tier.
type captured struct {
	grads [][]float32
	push  [numWorkers][][]byte
	pull  [][]byte
}

// pass is a built topology and, after run, what it measured.
type pass struct {
	cfg   passConfig
	epoch time.Time
	in    inputs
	psCfg ps.Config

	global    *nn.Model
	workers   []*ps.Worker
	listeners []net.Listener
	serveErr  chan error
	servers   int
	traffic   func() (push, pull int64)
	whole     []pushPuller
	streams   []*transport.ShardClient
	closers   []io.Closer
	meters    [numWorkers][]*meterConn
	shapes    [numWorkers][]*shapedConn
	shaper    *shaper
	timed     *timedJob
	sync      *lockstep
	ref       *refOp

	// Results.
	open, end    clocks // the timed window: the set-up ends where it opens
	mem0, mem1   runtime.MemStats
	recs         [numWorkers][]stepRec
	endPush      int64 // TrafficBytes after the servers exited
	endPull      int64
	replicaHash  [numWorkers][sha256.Size]byte
	globalHash   [sha256.Size]byte
	captures     []captured
	captureSteps map[int]int
}

// pushPuller is the whole-set exchange both client generations offer.
type pushPuller interface {
	PushPull(step int, wires [][]byte) ([][]byte, error)
}

// timedJob times a ps.Job from outside through the transport.StepServer
// seam the legacy server offers; the traced lan-f32 pass installs it.
type timedJob struct {
	job    *ps.Job
	cur    time.Duration
	add    []float64 // per step, milliseconds, summed over workers
	finish []float64
}

func (t *timedJob) BeginStep() { t.cur = 0; t.job.BeginStep() }

func (t *timedJob) AddPush(w int, wires [][]byte) (time.Duration, error) {
	start := time.Now()
	d, err := t.job.AddPush(w, wires)
	t.cur += time.Since(start)
	return d, err
}

func (t *timedJob) FinishStep() ([][]byte, time.Duration, error) {
	start := time.Now()
	pull, d, err := t.job.FinishStep()
	t.finish = append(t.finish, ms(int64(time.Since(start))))
	t.add = append(t.add, ms(int64(t.cur)))
	return pull, d, err
}

// runPass builds the topology for cfg, runs it and tears it down. A step
// that returns an error ends the pass: BSP cannot continue without it. The
// pass is returned either way so completed steps can be counted.
func runPass(cfg passConfig) (*pass, error) {
	// Collect what earlier passes left behind first, so that the process's
	// peak memory is one pass's and does not depend on when the collector
	// last ran.
	runtime.GC()
	p := &pass{cfg: cfg, epoch: time.Now(), sync: newLockstep()}
	if err := p.build(); err != nil {
		p.teardown()
		return p, err
	}
	err := p.drive()
	if terr := p.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return p, err
	}
	p.endPush, p.endPull = p.traffic()
	p.globalHash = hashParams(p.global)
	for w, wk := range p.workers {
		p.replicaHash[w] = hashParams(wk.Model)
	}
	return p, nil
}

func (p *pass) now() int64 { return int64(time.Since(p.epoch)) }

// build generates the inputs and stands the tier up: models, listeners,
// servers, and one dialed and handshaken client per worker.
func (p *pass) build() error {
	wl := p.cfg.wl
	total := p.cfg.warm + p.cfg.steps
	p.in = makeInputs(p.cfg.seed)
	p.psCfg = wl.psConfig(p.cfg.horizon)
	p.global = wl.build(p.in)
	p.serveErr = make(chan error, wl.shards)
	var err error
	if p.ref, err = newRefOp(); err != nil {
		return err
	}
	p.closers = append(p.closers, p.ref)

	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		p.listeners = append(p.listeners, ln)
		return ln, nil
	}

	addrs := make([]string, wl.shards)
	if wl.legacy {
		ln, err := listen()
		if err != nil {
			return err
		}
		addrs[0] = ln.Addr().String()
		job := ps.NewJob(p.global, p.psCfg)
		var step transport.StepServer = job
		if p.cfg.traced {
			p.timed = &timedJob{job: job}
			step = p.timed
		}
		srv := transport.NewServer(ln, step, numWorkers, total)
		p.traffic = srv.TrafficBytes
		p.servers = 1
		go func() { p.serveErr <- srv.Serve() }()
	} else {
		asn := shard.ForModel(p.global, wl.shards)
		subs, err := shard.SubServers(p.global, p.psCfg, asn)
		if err != nil {
			return err
		}
		srvs := make([]*transport.ShardServer, wl.shards)
		for s := range srvs {
			ln, err := listen()
			if err != nil {
				return err
			}
			addrs[s] = ln.Addr().String()
			srvs[s] = transport.NewShardServer(ln, subs[s], transport.ShardServerConfig{
				Shard:          s,
				NumShards:      wl.shards,
				Workers:        numWorkers,
				Steps:          total,
				AssignmentHash: asn.Hash(),
			})
			p.servers++
			go func(srv *transport.ShardServer) { p.serveErr <- srv.Serve() }(srvs[s])
		}
		p.traffic = func() (push, pull int64) {
			for _, srv := range srvs {
				a, b := srv.TrafficBytes()
				push += a
				pull += b
			}
			return push, pull
		}
	}

	if wl.linkBps > 0 {
		p.shaper = newShaper(wl.linkBps)
	}
	for w := 0; w < numWorkers; w++ {
		m := wl.build(p.in)
		m.CopyParamsFrom(p.global)
		p.workers = append(p.workers, ps.NewWorker(w, m, p.psCfg))
		dialer := p.dialer(w, total)
		if wl.legacy {
			c, err := transport.DialTimeoutDialer(addrs[0], w, transport.Timeouts{}, dialer)
			if err != nil {
				return err
			}
			p.whole = append(p.whole, c)
			p.closers = append(p.closers, c)
			continue
		}
		c, err := transport.DialShardedConfig(addrs, w, shard.ForModel(m, wl.shards),
			transport.ShardClientConfig{Dialer: dialer})
		if err != nil {
			return err
		}
		if wl.stream {
			p.streams = append(p.streams, c)
		} else {
			p.whole = append(p.whole, c)
		}
		p.closers = append(p.closers, c)
	}
	return nil
}

// dialer returns worker w's connection opener: nil (plain TCP, exactly
// what a deployment gets) unless the link is shaped or the pass is
// traced.
func (p *pass) dialer(w, steps int) transport.Dialer {
	if p.shaper == nil && !p.cfg.traced {
		return nil
	}
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if p.shaper != nil {
			sc := p.shaper.wrap(c)
			p.shapes[w] = append(p.shapes[w], sc)
			c = sc
		}
		if p.cfg.traced {
			mc := newMeterConn(c, p.epoch, steps)
			p.meters[w] = append(p.meters[w], mc)
			c = mc
		}
		return c, nil
	}
}

// teardown closes the clients and listeners and collects the servers'
// exits. After a clean drive every server has already returned nil.
func (p *pass) teardown() error {
	for _, c := range p.closers {
		c.Close()
	}
	for _, ln := range p.listeners {
		ln.Close()
	}
	var first error
	for i := 0; i < p.servers; i++ {
		if err := <-p.serveErr; err != nil && first == nil {
			first = fmt.Errorf("server: %w", err)
		}
	}
	return first
}

// drive runs the worker loops to completion.
func (p *pass) drive() error {
	total := p.cfg.warm + p.cfg.steps
	if p.cfg.traced {
		p.captureSteps = make(map[int]int)
		for k, s := range captureIndices(p.cfg.warm, p.cfg.steps, p.cfg.captureSpan, p.cfg.capture) {
			p.captureSteps[s] = k
		}
		p.captures = make([]captured, len(p.captureSteps))
	}
	errs := make([]error, numWorkers)
	var wg sync.WaitGroup
	for w := 0; w < numWorkers; w++ {
		p.recs[w] = make([]stepRec, total)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := p.work(w); err != nil {
				errs[w] = fmt.Errorf("worker %d: %w", w, err)
				// Unblock the peer: it is waiting for its turn, or on a
				// pull that will never come.
				p.sync.abort()
				for _, c := range p.closers {
					c.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// captureIndices returns the steps of a pass whose inputs are kept for
// replay: up to capture of them, evenly spaced over the first span timed
// steps. A pass shorter than span spreads them over what it has.
func captureIndices(warm, steps, span, capture int) []int {
	span = min(span, steps)
	n := min(capture, span)
	idx := make([]int, 0, max(n, 0))
	for k := 0; k < n; k++ {
		idx = append(idx, warm+k*span/n)
	}
	return idx
}

// lockstep runs the emulated nodes of a pass one after the other, the way
// one processor would: within a step the workers compute their gradients in
// worker order, one at a time, all of them start the exchange together, and
// none starts the next step before all have applied the update. With
// GOMAXPROCS at 1 (runWorkload) a step's wall time is then the sum of the
// work of every node and does not depend on how many of the host's CPUs are
// free at the same instant, which on a shared host changes from second to
// second.
type lockstep struct {
	mu      sync.Mutex
	cond    *sync.Cond
	turn    int // the worker whose gradient computation may run
	arrived int // workers waiting at the barrier
	round   int // barriers completed
	at      int64
	broken  bool
}

func newLockstep() *lockstep {
	l := &lockstep{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

var errPeerFailed = errors.New("stopped: the peer worker failed")

// awaitTurn blocks until worker w may compute.
func (l *lockstep) awaitTurn(w int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.turn != w && !l.broken {
		l.cond.Wait()
	}
	if l.broken {
		return errPeerFailed
	}
	return nil
}

// passTurn lets the next worker compute.
func (l *lockstep) passTurn() {
	l.mu.Lock()
	l.turn++
	l.mu.Unlock()
	l.cond.Broadcast()
}

// barrier blocks until every worker has reached it and returns what now
// read when the last one did. It hands the turn back to worker 0.
func (l *lockstep) barrier(now func() int64) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.arrived++; l.arrived == numWorkers {
		l.arrived, l.turn, l.at = 0, 0, now()
		l.round++
		l.cond.Broadcast()
	} else {
		for round := l.round; round == l.round && !l.broken; {
			l.cond.Wait()
		}
	}
	if l.broken {
		return 0, errPeerFailed
	}
	return l.at, nil
}

// abort releases every waiter, for good.
func (l *lockstep) abort() {
	l.mu.Lock()
	l.broken = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// work is one worker's closed loop: sample a batch, compute the gradient
// when its turn comes, exchange it for the shared update together with the
// other workers, apply it, and wait until every worker has.
func (p *pass) work(w int) error {
	cfg := p.cfg
	wk := p.workers[w]
	rng := tensor.NewRNG(batchSeed(cfg.seed, w))
	total := cfg.warm + cfg.steps
	for s := 0; s < total; s++ {
		idx := make([]int, batchSize)
		for i := range idx {
			idx[i] = rng.Intn(p.in.train.Len())
		}
		x, labels := p.in.train.FlatBatch(idx, nil, nil)
		rec := &p.recs[w][s]
		if err := p.sync.awaitTurn(w); err != nil {
			return err
		}
		rec.t0 = p.now()
		rec.loss = wk.Model.TrainStep(x, labels)
		rec.t1 = p.now()
		p.sync.passTurn()
		var err error
		if rec.x0, err = p.sync.barrier(p.now); err != nil {
			return err
		}
		if cfg.wl.stream {
			err = p.exchangeStream(w, s, rec)
		} else {
			err = p.exchangeWhole(w, s, rec)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		if rec.t2, err = p.sync.barrier(p.now); err != nil {
			return err
		}
		if w == 0 {
			if err := p.ref.run(); err != nil {
				return fmt.Errorf("step %d: reference operation: %w", s, err)
			}
			rec.ref = p.now() - rec.t2
		}
		for _, sc := range p.shapes[w] {
			rec.slept += sc.slept.Load()
		}
		if cfg.traced {
			p.afterStep(w, s)
		}
		if w == 0 && s == cfg.warm-1 {
			// The set-up ends here and the timed window opens.
			if cfg.memStats {
				runtime.ReadMemStats(&p.mem0)
			}
			p.open = p.readClocks()
		}
	}
	if w == 0 {
		p.end = p.readClocks()
		if cfg.memStats {
			runtime.ReadMemStats(&p.mem1)
		}
	}
	return nil
}

// exchangeWhole is the whole-set exchange: compress every tensor, one
// push/pull round trip, apply the pulled set.
func (p *pass) exchangeWhole(w, s int, rec *stepRec) error {
	wk := p.workers[w]
	traced := p.cfg.traced
	if traced {
		for _, mc := range p.meters[w] {
			mc.step = s
		}
		rec.enc0 = p.now()
	}
	wires, _ := wk.CompressGrads()
	if traced {
		rec.enc1 = p.now()
		rec.px0 = rec.enc1
	}
	pull, err := p.whole[w].PushPull(s, wires)
	if err != nil {
		return err
	}
	if traced {
		rec.px1 = p.now()
		rec.ap0 = rec.px1
		rec.codecBytes = int64(ps.WireBytes(wires) + ps.WireBytes(pull))
		if k, ok := p.captureSteps[s]; ok {
			p.capture(k, w, wires, pull)
		}
	}
	if _, err := wk.ApplyPull(pull); err != nil {
		return err
	}
	if traced {
		rec.ap1 = p.now()
		rec.applyBusy = rec.ap1 - rec.ap0
	}
	return nil
}

// exchangeStream is the per-tensor pipeline: each tensor enters the wire
// as its compressor finishes and each pulled tensor is applied as its
// frame lands.
func (p *pass) exchangeStream(w, s int, rec *stepRec) error {
	wk := p.workers[w]
	traced := p.cfg.traced
	k, capturing := p.captureSteps[s]
	var pushed, pulled, busy, first, last atomic.Int64
	ch := make(chan transport.IndexedWire, len(wk.Model.Params()))
	go func() {
		if traced {
			rec.enc0 = p.now()
		}
		wires, _ := wk.CompressGradsStream(func(i int, wire []byte) {
			if traced {
				pushed.Add(int64(len(wire)))
			}
			ch <- transport.IndexedWire{I: i, Wire: wire}
		})
		if traced {
			rec.enc1 = p.now()
		}
		if capturing {
			p.capture(k, w, wires, nil)
		}
		close(ch)
	}()
	apply := wk.ApplyPullTensor
	if traced {
		for _, mc := range p.meters[w] {
			mc.step = s
		}
		var mu sync.Mutex
		apply = func(i int, wire []byte) error {
			t0 := p.now()
			err := wk.ApplyPullTensor(i, wire)
			t1 := p.now()
			busy.Add(t1 - t0)
			pulled.Add(int64(len(wire)))
			first.CompareAndSwap(0, t0)
			for {
				old := last.Load()
				if t1 <= old || last.CompareAndSwap(old, t1) {
					break
				}
			}
			if capturing && w == 0 {
				mu.Lock()
				c := &p.captures[k]
				for len(c.pull) <= i {
					c.pull = append(c.pull, nil)
				}
				c.pull[i] = append([]byte(nil), wire...)
				mu.Unlock()
			}
			return err
		}
		rec.px0 = p.now()
	}
	if err := p.streams[w].PushPullStream(s, ch, apply); err != nil {
		return err
	}
	if traced {
		rec.px1 = p.now()
		rec.ap0, rec.ap1, rec.applyBusy = first.Load(), last.Load(), busy.Load()
		rec.codecBytes = pushed.Load() + pulled.Load()
	}
	return nil
}

// afterStep turns the step's byte counts into running totals and reads
// the connections' counters.
func (p *pass) afterStep(w, s int) {
	rec := &p.recs[w][s]
	if s > 0 {
		rec.codecBytes += p.recs[w][s-1].codecBytes
	}
	for _, mc := range p.meters[w] {
		rec.sockBytes += mc.wrote + mc.read
		rec.ioCalls[0] += mc.writes
		rec.ioCalls[1] += mc.reads
	}
}

// capture copies a step's replay inputs. Worker 0 also keeps its
// gradients, which stay in the replica's G tensors until the next step.
func (p *pass) capture(k, w int, push, pull [][]byte) {
	c := &p.captures[k]
	c.push[w] = copyWires(push)
	if w != 0 {
		return
	}
	if pull != nil {
		c.pull = copyWires(pull)
	}
	for _, prm := range p.workers[0].Model.Params() {
		c.grads = append(c.grads, append([]float32(nil), prm.G.Data()...))
	}
}

func copyWires(wires [][]byte) [][]byte {
	out := make([][]byte, len(wires))
	for i, w := range wires {
		out[i] = append([]byte(nil), w...)
	}
	return out
}

// accuracy is m's top-1 accuracy on the held-out set.
func accuracy(m *nn.Model, in inputs) float64 {
	idx := make([]int, in.test.Len())
	for i := range idx {
		idx[i] = i
	}
	x, labels := in.test.FlatBatch(idx, nil, nil)
	return m.Accuracy(x, labels)
}

// hashParams fingerprints a model's parameter bits.
func hashParams(m *nn.Model) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, prm := range m.Params() {
		for _, v := range prm.W.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refOp is the reference operation: a fixed piece of work that uses nothing
// of the program under test, run by worker 0 after every step while the
// other workers wait for their turn. It is a dependent multiply-add chain
// over 64 Ki floats followed by four 64-byte round trips over a loopback TCP
// connection to an echo goroutine: user-space arithmetic, and the kernel's
// socket path with the goroutine hand-overs that go with it, which is what
// an exchange is made of. The host is a shared machine whose cores run such
// code up to 1.7 times slower, for minutes at a time, when a neighbour is
// busy; the reference operation slows with the steps around it, so a step's
// time counted in reference operations stays put when the host's speed does
// not (README, "Host speed and the reference operation").
type refOp struct {
	buf  []float32
	msg  []byte
	conn net.Conn
	ln   net.Listener
}

const refRoundTrips = 4

func newRefOp() (*refOp, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference operation: %w", err)
	}
	r := &refOp{buf: make([]float32, 64<<10), msg: make([]byte, 64), ln: ln}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		return nil, fmt.Errorf("reference operation: %w", err)
	}
	return r, nil
}

var refSink float32

func (r *refOp) run() error {
	var acc float32
	for i, v := range r.buf {
		acc += v * 1.0001
		r.buf[i] = acc * 0.5
	}
	refSink = acc
	for i := 0; i < refRoundTrips; i++ {
		if _, err := r.conn.Write(r.msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(r.conn, r.msg); err != nil {
			return err
		}
	}
	return nil
}

// Close ends the echo goroutine with the connection.
func (r *refOp) Close() error {
	r.ln.Close()
	return r.conn.Close()
}
