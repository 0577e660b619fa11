package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// countConn counts what a connection is asked to write: calls, bytes, the
// frames in them (a link only ever writes whole frames, so every buffer
// walks from prefix to prefix) and how often the write deadline is armed.
type countConn struct {
	net.Conn
	writes, bytes, frames, armed atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	for q := p; len(q) >= frameHeaderLen; c.frames.Add(1) {
		q = q[min(len(q), 4+int(le.Uint32(q))):]
	}
	return c.Conn.Write(p)
}

func (c *countConn) SetWriteDeadline(t time.Time) error {
	c.armed.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// wrote is a countConn's counters at one instant.
type wrote struct{ writes, bytes, frames, armed int64 }

func (c *countConn) snap() wrote {
	return wrote{c.writes.Load(), c.bytes.Load(), c.frames.Load(), c.armed.Load()}
}

func (a wrote) since(b wrote) wrote {
	return wrote{a.writes - b.writes, a.bytes - b.bytes, a.frames - b.frames, a.armed - b.armed}
}

// countListener hands out counting connections and keeps them in accept
// order.
type countListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countConn
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countListener) conn(i int) *countConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// streamTier is a sharded tier over loopback TCP whose every connection
// counts, both ends: clients[w] streams for worker w over conns[w][s],
// and shard s — shards[s] — answers it over servers[s].conn(w): the
// workers dial one after the other, so a listener accepts them in worker
// order.
type streamTier struct {
	clients   []*ShardClient
	workers   []*ps.Worker
	backwards []func() // per worker: hands it its gradient for the next step (fixedGrads)
	conns     [][]*countConn
	servers   []*countListener
	shards    []*ShardServer
	served    chan error // each shard's Serve, once it has returned
}

// newStreamTier stands the tier up for an unbounded run; the servers end
// when the test closes the clients. wrap, when non-nil, puts an aggregator
// of the test's own around each shard's job.
func newStreamTier(t testing.TB, build func() *nn.Model, cfg ps.Config, shards int,
	ccfg ShardClientConfig, wrap func(*ps.Job) StepServer) *streamTier {
	t.Helper()
	global := build()
	asn := shard.ForModel(global, shards)
	subs := mustSubServers(t, global, cfg, asn)
	tier := &streamTier{served: make(chan error, shards)}
	addrs := make([]string, shards)
	for s := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl := &countListener{Listener: ln}
		t.Cleanup(func() { cl.Close() })
		tier.servers = append(tier.servers, cl)
		addrs[s] = ln.Addr().String()
		var agg StepServer = subs[s]
		if wrap != nil {
			agg = wrap(subs[s])
		}
		srv := &ShardServer{agg: agg, ln: cl, cfg: ShardServerConfig{
			Shard: s, NumShards: shards, Workers: cfg.Workers, Steps: 1 << 30, AssignmentHash: asn.Hash(),
			Resilient: ccfg.Resilient,
		}}
		tier.shards = append(tier.shards, srv)
		go func() { tier.served <- srv.Serve() }() // ends, with the hang-up as its error, when the clients close
	}
	for w := 0; w < cfg.Workers; w++ {
		var conns []*countConn
		ccfg.Dialer = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			conns = append(conns, &countConn{Conn: c})
			return conns[len(conns)-1], nil
		}
		m := build()
		m.CopyParamsFrom(global)
		cl, err := DialShardedConfig(addrs, w, shard.ForModel(m, shards), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		tier.clients = append(tier.clients, cl)
		tier.conns = append(tier.conns, conns)
		wk := ps.NewWorker(w, m, cfg)
		tier.workers = append(tier.workers, wk)
		tier.backwards = append(tier.backwards, fixedGrads(m, tensor.NewRNG(31+uint64(w))))
	}
	return tier
}

// fixedGrads fills each of m's gradients once, N(0, 0.01²) from rng, and
// returns what hands m the same gradients again for its next step, as a
// backward pass would: ZeroGrad, then an add into G. A worker's 3LC
// tensor, whose G is its push context's error buffer, thus pushes e + g
// for the same g every step when backward runs after each exchange.
func fixedGrads(m *nn.Model, rng *tensor.RNG) (backward func()) {
	var grads []*tensor.Tensor
	for _, p := range m.Params() {
		tensor.FillNormal(p.G, 0.01, rng)
		grads = append(grads, p.G.Clone())
	}
	return func() {
		m.ZeroGrad()
		for i, p := range m.Params() {
			p.G.Add(grads[i])
		}
	}
}

// step runs one streamed step of every worker, each with its channel
// filled and closed before the call, and fails the test if the tier has
// not finished it in ten seconds: what a withheld frame looks like.
func (tier *streamTier) step(t testing.TB, step int) {
	t.Helper()
	errs := make(chan error, len(tier.clients))
	for w, cl := range tier.clients {
		wk := tier.workers[w]
		ch := make(chan IndexedWire, len(wk.Model.Params()))
		wk.CompressGradsStream(func(i int, wire []byte) { ch <- IndexedWire{I: i, Wire: wire} })
		close(ch)
		go func() { errs <- cl.PushPullStream(step, ch, wk.ApplyPullTensor) }()
	}
	for range tier.clients {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("step %d: the streamed exchange did not finish", step)
		}
	}
	for _, backward := range tier.backwards {
		backward()
	}
}

func repeat(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestStreamFlushPolicyProducerAhead pins what coalescing buys: when
// every tensor is ready before the call, a shard's push is written
// ⌈bytes / flushBytes⌉ times — once, unless flushBytes gather first — and
// so is the server's streamed pull. The larger model's frames are 4 KiB
// and less against shard totals near 90 KiB, so the write that passes
// flushBytes leaves a remainder and the two counts agree. A push that is
// never flushed at its end hangs here; one flushed per frame over-counts.
func TestStreamFlushPolicyProducerAhead(t *testing.T) {
	const shards = 2
	// Raw float32 wires, so each case sizes its frames by sizing its model.
	cfg := shardTestConfig(1, 1024)
	cfg.Scheme, cfg.Opts = compress.SchemeNone, compress.Options{}
	for _, tc := range []struct {
		name   string
		hidden []int
		writes int64
	}{
		{"one flush", []int{16, 10}, 1},
		{"flushBytes gather", repeat(40, 32), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tier := newStreamTier(t, func() *nn.Model { return nn.NewMLP(32, tc.hidden, 4, 7) },
				cfg, shards, ShardClientConfig{}, nil)
			tier.step(t, 0) // seats the server's connections
			for step := 1; step < 3; step++ {
				var before [2][shards]wrote
				for s := 0; s < shards; s++ {
					before[0][s], before[1][s] = tier.conns[0][s].snap(), tier.servers[s].conn(0).snap()
				}
				tier.step(t, step)
				for s := 0; s < shards; s++ {
					for side, c := range []*countConn{tier.conns[0][s], tier.servers[s].conn(0)} {
						d := c.snap().since(before[side][s])
						if want := (d.bytes + flushBytes - 1) / flushBytes; d.writes != want || d.writes != tc.writes {
							t.Errorf("step %d shard %d %s: %d frames, %d bytes in %d writes, want %d = ⌈bytes/%d⌉ = %d",
								step, s, []string{"push", "pull"}[side], d.frames, d.bytes, d.writes, tc.writes, flushBytes, want)
						}
					}
				}
			}
		})
	}
}

// ingestSignal is an aggregator of the test's own around a shard's job:
// it reports every tensor the job has ingested.
type ingestSignal struct {
	*ps.Job
	ingested chan<- int
}

type signalPush struct {
	ps.PushSession
	ingested chan<- int
}

func (a ingestSignal) BeginPush(worker int) ps.PushSession {
	return signalPush{a.Job.BeginPush(worker), a.ingested}
}

func (p signalPush) Tensor(i int, wire []byte) error {
	err := p.PushSession.Tensor(i, wire)
	p.ingested <- i
	return err
}

// TestResilientStreamRefused: a resilient connection exchanges whole sets
// only (frameCodec.streamable), and both ends hold to it. On the client,
// PushPullStream fails with the refusal before a frame is written and
// still drains the producer's channel; on the server, readStream refuses a
// resilient seat's run before any entry reaches the aggregator — before
// the push is even begun.
func TestResilientStreamRefused(t *testing.T) {
	const want = "transport: worker 0: a resilient connection cannot stream runs"
	t.Run("client", func(t *testing.T) {
		tier := newStreamTier(t, buildShardModel, shardTestConfig(1, 1024), 2, ShardClientConfig{Resilient: true}, nil)
		wk, cl := tier.workers[0], tier.clients[0]
		var before []wrote
		for _, c := range tier.conns[0] {
			before = append(before, c.snap())
		}
		wires, _ := wk.CompressGrads()
		ch := make(chan IndexedWire, len(wires))
		for i, wire := range wires {
			ch <- IndexedWire{I: i, Wire: wire}
		}
		close(ch)
		if err := cl.PushPullStream(0, ch, wk.ApplyPullTensor); err == nil || err.Error() != want {
			t.Fatalf("PushPullStream = %v, want %q", err, want)
		}
		if len(ch) != 0 {
			t.Errorf("%d of %d tensors left in the producer's channel", len(ch), len(wires))
		}
		for s, c := range tier.conns[0] {
			if d := c.snap().since(before[s]); d.writes != 0 {
				t.Errorf("shard %d: %d writes of %d bytes after the refusal", s, d.writes, d.bytes)
			}
		}
	})
	t.Run("server", func(t *testing.T) {
		global := buildShardModel()
		cfg := shardTestConfig(1, 1)
		agg := &beginCounter{Job: mustSubServers(t, global, cfg, shard.ForModel(global, 1))[0]}
		s := newSession(agg, ShardServerConfig{NumShards: 1, Workers: 1, Steps: 1, Resilient: true}, nil, &traffic{})
		st := &seat{link: link{fc: frameCodec{resilient: true}}}
		run := frame{t: MsgShardPushLast, body: appendEntry(nil, -1, 0, []byte{byte(compress.SchemeNone)})}
		if _, err := s.readStream(st, 0, run); err == nil || err.Error() != want {
			t.Fatalf("readStream = %v, want %q", err, want)
		}
		if agg.begun != 0 {
			t.Errorf("the refused run began %d pushes on the aggregator", agg.begun)
		}
	})
}

// beginCounter counts the pushes a session begins on its job.
type beginCounter struct {
	*ps.Job
	begun int
}

func (a *beginCounter) BeginPush(worker int) ps.PushSession {
	a.begun++
	return a.Job.BeginPush(worker)
}

// TestStreamFlushOnIdleProducer is the other half of the policy: a
// producer that makes tensor i+1 only once the server has ingested tensor
// i must never find a tensor withheld for company. Flush-on-idle removed,
// tensor 0 waits in the link's buffer for a tensor that is waiting for it,
// and the step times out. What the policy costs such a producer is a run
// of one tensor per write — a header and the tensor's entry — and the
// push's empty last run at its end.
func TestStreamFlushOnIdleProducer(t *testing.T) {
	ingested := make(chan int)
	tier := newStreamTier(t, buildShardModel, shardTestConfig(1, 1024), 2, ShardClientConfig{},
		func(j *ps.Job) StepServer { return ingestSignal{j, ingested} })
	wk, cl := tier.workers[0], tier.clients[0]
	for step := 0; step < 2; step++ {
		var before [2]wrote
		for s, c := range tier.conns[0] {
			before[s] = c.snap()
		}
		wires, _ := wk.CompressGrads()
		ch := make(chan IndexedWire)
		done := make(chan error, 1)
		go func() { done <- cl.PushPullStream(step, ch, wk.ApplyPullTensor) }()
		fail := time.After(10 * time.Second)
		var want [2]wrote
		for i, wire := range wires {
			ch <- IndexedWire{I: i, Wire: wire}
			select {
			case <-ingested:
			case err := <-done:
				t.Fatalf("step %d: exchange ended at tensor %d: %v", step, i, err)
			case <-fail:
				t.Fatalf("step %d: tensor %d was handed over but never reached the server", step, i)
			}
			s := cl.asn.ShardOf[i]
			want[s].writes++
			want[s].bytes += int64(frameHeaderLen + ShardHeaderLen + len(appendEntry(nil, -1, cl.slot[i], wire)))
		}
		close(ch)
		if err := <-done; err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for s, c := range tier.conns[0] {
			want[s].writes++ // the push's empty last run
			want[s].bytes += frameHeaderLen + ShardHeaderLen
			if d := c.snap().since(before[s]); d.frames != want[s].writes || d.writes != want[s].writes || d.bytes != want[s].bytes {
				t.Errorf("step %d shard %d: %d frames, %d bytes in %d writes; want a run of one tensor a write: %d, %d in %d",
					step, s, d.frames, d.bytes, d.writes, want[s].writes, want[s].bytes, want[s].writes)
			}
		}
	}
}

// TestRunFramingBytes pins what a streamed step puts on the wire beside
// its tensors, to the byte. With every tensor ready before the call, each
// (worker, shard, direction) is one run, and what the servers count
// (TrafficBytes) is Σ wire + 12·runs + Σ uvarint(slot delta) +
// Σ uvarint(len); the sockets carry a 5-byte prefix a run on top.
func TestRunFramingBytes(t *testing.T) {
	const workers, shards = 2, 2
	tier := newStreamTier(t, buildShardModel, shardTestConfig(workers, 1024), shards, ShardClientConfig{}, nil)
	tier.step(t, 0) // seats the server's connections
	var conns []*countConn
	for w := range tier.clients {
		for s := range tier.servers {
			conns = append(conns, tier.conns[w][s], tier.servers[s].conn(w))
		}
	}
	socket := func() (bytes, frames int64) {
		for _, c := range conns {
			d := c.snap()
			bytes, frames = bytes+d.bytes, frames+d.frames
		}
		return bytes, frames
	}
	counted := func() (n int64) {
		for _, srv := range tier.shards {
			push, pull := srv.TrafficBytes()
			n += push + pull
		}
		return n
	}
	// A server counts a pull once its write has returned, which may be after
	// the worker has read it: before taking the baseline, wait until step 0's
	// pulls — all the servers have written — are counted.
	settled := func() bool {
		var counted, written int64
		for s, srv := range tier.shards {
			_, pull := srv.TrafficBytes()
			counted += pull
			for w := range tier.clients {
				d := tier.servers[s].conn(w).snap()
				written += d.bytes - frameHeaderLen*d.frames
			}
		}
		return counted == written
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("step 0's pulls were written but not counted in ten seconds")
		}
	}
	uvarintLen := func(x uint64) int64 { return int64(len(binary.AppendUvarint(nil, x))) }
	entry := func(prev, slot, n int) int64 {
		d := int64(slot - prev - 1)
		return uvarintLen(uint64(d<<1^d>>63)) + uvarintLen(uint64(n)) + int64(n)
	}

	bytes0, frames0 := socket()
	counted0 := counted()
	var want int64 // Σ wire + Σ uvarint(slot delta) + Σ uvarint(len)
	pulled := make([][]int, workers)
	errs := make(chan error, workers)
	for w, cl := range tier.clients {
		wk := tier.workers[w]
		wires, _ := wk.CompressGrads()
		ch := make(chan IndexedWire, len(wires))
		prev := []int{-1, -1} // per shard, the slot of the push run's last entry
		for i, wire := range wires {
			ch <- IndexedWire{I: i, Wire: wire}
			s := cl.asn.ShardOf[i]
			want += entry(prev[s], cl.slot[i], len(wire))
			prev[s] = cl.slot[i]
		}
		close(ch)
		pulled[w] = make([]int, len(wires))
		go func() {
			errs <- cl.PushPullStream(1, ch, func(i int, wire []byte) error {
				pulled[w][i] = len(wire)
				return wk.ApplyPullTensor(i, wire)
			})
		}()
	}
	for range tier.clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A server counts a pull once it is written: its counts are final when
	// it has exited.
	for _, cl := range tier.clients {
		cl.Close()
	}
	for range tier.shards {
		<-tier.served
	}
	for w, cl := range tier.clients {
		for s := range tier.shards {
			for k, i := range cl.idx[s] { // the server queues a pull in slot order
				want += entry(k-1, k, pulled[w][i])
			}
		}
	}
	bytes1, frames1 := socket()
	runs := frames1 - frames0
	if runs != 2*workers*shards {
		t.Fatalf("%d runs in a step, want one per worker, shard and direction: %d", runs, 2*workers*shards)
	}
	want += ShardHeaderLen * runs
	if got := counted() - counted0; got != want {
		t.Errorf("servers counted %d bytes, want %d = Σ wire + 12·%d runs + Σ uvarint(slot delta) + Σ uvarint(len)", got, want, runs)
	}
	if got := bytes1 - bytes0; got != want+frameHeaderLen*runs {
		t.Errorf("sockets carried %d bytes, want %d counted + %d prefixes", got, want, runs)
	}
}

// TestStreamedStepAllocsIndependentOfTensorCount: a streamed step's
// allocations are the call's fixed set-up (its channels, goroutines and
// the caller's own channel), not a function of how many tensors it
// carries — 18 or 258.
func TestStreamedStepAllocsIndependentOfTensorCount(t *testing.T) {
	allocs := func(hidden int) float64 {
		cfg := shardTestConfig(1, 1024)
		cfg.MinCompressElems = 256
		tier := newStreamTier(t, func() *nn.Model { return nn.NewMLP(48, repeat(hidden, 48), 10, 7) },
			cfg, 2, ShardClientConfig{}, nil)
		wk, cl := tier.workers[0], tier.clients[0]
		step := 0
		exchange := func() {
			// A push a step: the owner takes the step of the tensors it is
			// not sent on the push it made (ps.Pulls).
			wires, _ := wk.CompressGrads()
			ch := make(chan IndexedWire, len(wires))
			for i, wire := range wires {
				ch <- IndexedWire{I: i, Wire: wire}
			}
			close(ch)
			if err := cl.PushPullStream(step, ch, wk.ApplyPullTensor); err != nil {
				t.Fatal(err)
			}
			step++
		}
		// Warm up buffer capacities on both ends of the wire.
		for range 10 {
			exchange()
		}
		return testing.AllocsPerRun(50, exchange)
	}
	if small, large := allocs(4), allocs(64); small != large {
		t.Errorf("allocations per streamed step: %v with 18 tensors, %v with 258, want equal", small, large)
	}
}

// TestStreamedWriteDeadlinePerFlush: the write deadline covers a flush,
// not a tensor. A peer that took the hello and then stopped reading fails
// a streamed step of many tensors with a timeout after one Timeouts.Write:
// the tensors are one run, the run is one write, and the deadline was
// armed for it once.
func TestStreamedWriteDeadlinePerFlush(t *testing.T) {
	const write = 200 * time.Millisecond
	m := buildShardModel()
	asn := shard.ForModel(m, 1)
	near, far := net.Pipe()
	defer far.Close()
	helloRead := make(chan error, 1)
	go func() {
		_, _, err := NewFrameReader(far).ReadFrame()
		helloRead <- err // and never read again
	}()
	cc := &countConn{Conn: near}
	cl, err := DialShardedConfig([]string{"pipe"}, 0, asn, ShardClientConfig{
		Timeouts: Timeouts{Write: write},
		Dialer:   func(string) (net.Conn, error) { return cc, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := <-helloRead; err != nil {
		t.Fatal(err)
	}
	n := len(m.Params())
	ch := make(chan IndexedWire, n)
	for i := 0; i < n; i++ {
		ch <- IndexedWire{I: i, Wire: []byte{1, 2, 3}}
	}
	close(ch)
	before, start := cc.snap(), time.Now()
	err = cl.PushPullStream(0, ch, func(int, []byte) error { return nil })
	took, d := time.Since(start), cc.snap().since(before)
	if !IsTimeout(err) {
		t.Fatalf("PushPullStream against a stalled peer = %v, want a timeout", err)
	}
	// Slots in order, so each entry is a 1-byte delta, a 1-byte length and
	// the 3-byte wire.
	if want := int64(frameHeaderLen + ShardHeaderLen + 5*n); d.armed != 1 || d.writes != 1 || d.frames != 1 || d.bytes != want {
		t.Errorf("%d bytes, %d frames in %d writes under %d deadlines, want %d tensors in one %d-byte run, one write, one deadline",
			d.bytes, d.frames, d.writes, d.armed, n, want)
	}
	if took < write || took > time.Duration(n)*write/2 {
		t.Errorf("failed after %v, want one Timeouts.Write (%v), not one per frame", took, write)
	}
}

// TestPushPullStreamEnforcesItsContract: an index outside the placement
// or sent twice fails the call on the client, before any of it is framed
// — the shards see the tensors sent ahead of it and nothing else, not
// even an end of push — and the call still drains the channel, so a
// producer blocked handing over its next tensor is released. A producer
// that is ahead (the channel filled before the call) has tensor 0 still
// queued when the bad index arrives: it is dropped with the step, not
// left on the link for the next one.
func TestPushPullStreamEnforcesItsContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bad     func(n int) int
		ahead   bool
		wantErr string
	}{
		{"out of range", func(n int) int { return n }, false, "out of range"},
		{"negative", func(int) int { return -1 }, false, "out of range"},
		{"repeated", func(int) int { return 0 }, false, "streamed twice"},
		{"repeated, producer ahead", func(int) int { return 0 }, true, "streamed twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tier := newStreamTier(t, buildShardModel, shardTestConfig(1, 1024), 2, ShardClientConfig{}, nil)
			wk, cl := tier.workers[0], tier.clients[0]
			wires, _ := wk.CompressGrads()
			var before []wrote
			for _, c := range tier.conns[0] {
				before = append(before, c.snap())
			}
			ch, want := make(chan IndexedWire), int64(1)
			if tc.ahead {
				ch, want = make(chan IndexedWire, len(wires)+1), 0
			}
			produced := make(chan struct{})
			go func() {
				defer close(produced)
				defer close(ch)
				ch <- IndexedWire{I: 0, Wire: wires[0]}
				ch <- IndexedWire{I: tc.bad(len(wires)), Wire: wires[0]}
				for i := 1; i < len(wires); i++ {
					ch <- IndexedWire{I: i, Wire: wires[i]}
				}
			}()
			if tc.ahead {
				<-produced
			}
			err := cl.PushPullStream(0, ch, wk.ApplyPullTensor)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("PushPullStream = %v, want an error containing %q", err, tc.wantErr)
			}
			select {
			case <-produced:
			case <-time.After(10 * time.Second):
				t.Fatal("the producer is still blocked on the channel after the call returned")
			}
			var frames int64
			for s, c := range tier.conns[0] {
				frames += c.snap().since(before[s]).frames
			}
			if frames != want {
				t.Errorf("%d frames reached the wire, want %d (tensor 0, if flushed before the bad index)", frames, want)
			}
			for s, sc := range cl.conns {
				if sc.out.len() != 0 {
					t.Errorf("shard %d: %d bytes of the failed step still queued on the link", s, sc.out.len())
				}
			}
		})
	}
}

// TestLinkWritesPerFlush pins the link's write path at both ends of the
// size range: a sent frame, and a run of queued tensors however far past
// flushBytes it goes, are each one flush, and the socket is handed the
// copied encoding byte for byte. With 1 000-byte wires a flush is one
// Write. A 2 MiB wire is spliced, not copied, and the flush goes out as
// one net.Buffers write: a single writev on a TCP connection, and on a
// plain writer, as here, a Write per segment — 1 + 2·splices, since every
// spliced wire here has bytes behind it in its flush. None of it
// allocates once the buffers have grown, which the race detector's own
// allocations hide.
func TestLinkWritesPerFlush(t *testing.T) {
	for _, tc := range []struct {
		size          int
		send, flushes int64 // writes
	}{
		{1000, 1, 1},
		{2 << 20, 1 + 2*1, 1 + 2*3},
	} {
		rec := &recordConn{}
		cc := &countConn{Conn: rec}
		l := &link{}
		l.attach(cc)
		wire := make([]byte, tc.size)
		for i := range wire {
			wire[i] = byte(7 * i)
		}
		set := [][]byte{wire, {1}}
		tail := []byte{2, 3}
		queueRun := func(l *link) {
			for k := 0; k < 3; k++ {
				l.entry(MsgShardPushRun, 1, k, wire)
			}
			l.entry(MsgShardPushRun, 1, 3, tail)
		}
		// The copied encoding of a round: the frame, then the run.
		want, err := l.fc.appendFrame(nil, frame{t: MsgShardPush, step: 1, set: set})
		if err != nil {
			t.Fatal(err)
		}
		flat := &link{out: frames{flat: true}}
		queueRun(flat)
		if err := flat.closeRun(); err != nil {
			t.Fatal(err)
		}
		want = append(want, flat.out.b...)

		var send, flush wrote
		round := func() {
			rec.got.Reset()
			before := cc.snap()
			if err := l.send(frame{t: MsgShardPush, step: 1, set: set}); err != nil {
				t.Fatal(err)
			}
			mid := cc.snap()
			queueRun(l)
			if err := l.flush(); err != nil {
				t.Fatal(err)
			}
			send, flush = mid.since(before), cc.snap().since(mid)
		}
		round()
		if send.writes != tc.send || flush.writes != tc.flushes {
			t.Errorf("%d-byte wires: a send took %d writes and a flush of a four-tensor run %d, want %d and %d",
				tc.size, send.writes, flush.writes, tc.send, tc.flushes)
		}
		if !bytes.Equal(rec.got.Bytes(), want) {
			t.Errorf("%d-byte wires: the socket was handed %d bytes that are not the copied encoding's %d", tc.size, rec.got.Len(), len(want))
		}
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 && !raceDetector {
			t.Errorf("%d-byte wires: %v allocs per send + flush, want 0", tc.size, allocs)
		}
	}
}

// chunkReader hands out its bytes in chunks of the sizes next yields.
type chunkReader struct {
	data []byte
	next func() int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(len(r.data), max(1, r.next()))])
	r.data = r.data[n:]
	return n, nil
}

// readAll parses r to its end through a FrameReader behind a read buffer
// of a link's size, copying each frame out of the scratch.
func readAll(r io.Reader) (types []MsgType, payloads [][]byte, err error) {
	fr := NewFrameReader(bufio.NewReaderSize(r, flushBytes))
	for {
		t, payload, err := fr.ReadFrame()
		if err != nil {
			return types, payloads, err
		}
		types = append(types, t)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
}

// coalescedRun is what a streamed push's flushes look like back to back:
// tensors with wires of the given sizes queued on a link through fc, their
// run closed whenever flushBytes have gathered and the last one the push's
// end. It returns the frames and how many there are.
func coalescedRun(t testing.TB, fc frameCodec, sizes ...int) (run []byte, frames int) {
	rng := tensor.NewRNG(5)
	l := &link{fc: fc}
	for k, size := range sizes {
		wire := make([]byte, size)
		for i := range wire {
			wire[i] = byte(rng.Intn(256))
		}
		l.entry(MsgShardPushRun, 7, k, wire)
		if l.out.since(l.runAt) >= flushBytes {
			if err := l.closeRun(); err != nil {
				t.Fatal(err)
			}
			frames++
		}
	}
	l.endRun(MsgShardPushLast, 7)
	if err := l.closeRun(); err != nil {
		t.Fatal(err)
	}
	return socketBytes(&l.out), frames + 1
}

// TestFrameReaderCoalescedRunAnyChunking: runs go past flushBytes and sit
// behind one another, so frames straddle reads. However the stream is cut
// — a byte at a time, in random pieces up to past the read buffer — the
// reader yields the frames of the whole buffer, and they parse as what was
// queued: runs, the last one the push's end, whose entries give back
// every tensor once, in order, at its size.
func TestFrameReaderCoalescedRunAnyChunking(t *testing.T) {
	sizes := []int{0, 1, 3, 100, 4091, flushBytes - 20, 17, flushBytes + 1, 2 * flushBytes, 5}
	for sub := byte(0); sub < 2; sub++ { // plain and resilient (checksummed)
		fc := fuzzCodec(sub)
		run, frames := coalescedRun(t, fc, sizes...)
		if frames != 4 {
			t.Fatalf("%d sizes made %d runs, want 4", len(sizes), frames)
		}
		wantT, wantP, err := readAll(bytes.NewReader(run))
		if err != io.EOF || len(wantT) != frames {
			t.Fatalf("whole buffer: %d of %d frames, then %v", len(wantT), frames, err)
		}
		seen := make([]bool, len(sizes))
		next := 0
		for k, p := range wantP {
			f, err := fc.parseFrame(wantT[k], p, 7, false)
			if last := k == frames-1; err != nil || (f.t == MsgShardPushLast) != last {
				t.Fatalf("frame %d of %d: type %d, %v", k, frames, wantT[k], err)
			}
			if _, err := applyRun(f.body, seen, func(slot int, wire []byte) error {
				if slot != next || len(wire) != sizes[slot] {
					return fmt.Errorf("entry %d: slot %d of %d bytes, want %d bytes", next, slot, len(wire), sizes[next])
				}
				next++
				return nil
			}); err != nil {
				t.Fatalf("run %d: %v", k, err)
			}
		}
		if next != len(sizes) {
			t.Fatalf("the runs gave back %d of %d tensors", next, len(sizes))
		}
		rng := tensor.NewRNG(11)
		for _, most := range []int{0, 7, 1500, flushBytes, 3 * flushBytes} {
			r := io.Reader(&chunkReader{data: run, next: func() int { return 1 + rng.Intn(most) }})
			if most == 0 {
				r = iotest.OneByteReader(bytes.NewReader(run))
			}
			gotT, gotP, err := readAll(r)
			if err != io.EOF || len(gotT) != frames {
				t.Fatalf("subset %#x, chunks up to %d: %d of %d frames, then %v", sub, most, len(gotT), frames, err)
			}
			for k := range gotP {
				if gotT[k] != wantT[k] || !bytes.Equal(gotP[k], wantP[k]) {
					t.Fatalf("subset %#x, chunks up to %d: frame %d differs from the whole-buffer parse", sub, most, k)
				}
			}
		}
	}
}
