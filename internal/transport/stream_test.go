package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
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
// and shard s answers it over servers[s].conn(w) — the workers dial one
// after the other, so a listener accepts them in worker order.
type streamTier struct {
	clients []*ShardClient
	workers []*ps.Worker
	conns   [][]*countConn
	servers []*countListener
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
	tier := &streamTier{}
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
		}}
		go srv.Serve() // ends, with the hang-up as its error, when the clients close
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
		rng := tensor.NewRNG(31 + uint64(w))
		for _, p := range wk.Model.Params() {
			tensor.FillNormal(p.G, 0.01, rng)
		}
		tier.workers = append(tier.workers, wk)
	}
	return tier
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

// TestStreamFlushOnIdleProducer is the other half of the policy: a
// producer that makes tensor i+1 only once the server has ingested tensor
// i must never find a frame withheld for company. Flush-on-idle removed,
// tensor 0 waits in the link's buffer for a tensor that is waiting for it,
// and the step times out.
func TestStreamFlushOnIdleProducer(t *testing.T) {
	ingested := make(chan int)
	tier := newStreamTier(t, buildShardModel, shardTestConfig(1, 1024), 2, ShardClientConfig{},
		func(j *ps.Job) StepServer { return ingestSignal{j, ingested} })
	wk, cl := tier.workers[0], tier.clients[0]
	for step := 0; step < 2; step++ {
		wires, _ := wk.CompressGrads()
		ch := make(chan IndexedWire)
		done := make(chan error, 1)
		go func() { done <- cl.PushPullStream(step, ch, wk.ApplyPullTensor) }()
		fail := time.After(10 * time.Second)
		for i, wire := range wires {
			ch <- IndexedWire{I: i, Wire: wire}
			select {
			case <-ingested:
			case err := <-done:
				t.Fatalf("step %d: exchange ended at tensor %d: %v", step, i, err)
			case <-fail:
				t.Fatalf("step %d: tensor %d was handed over but never reached the server", step, i)
			}
		}
		close(ch)
		if err := <-done; err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// One frame at a time was all there ever was to write.
		for s, c := range tier.conns[0] {
			if d := c.snap(); d.frames != d.writes {
				t.Errorf("step %d shard %d: %d frames in %d writes, want one each", step, s, d.frames, d.writes)
			}
		}
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
// not a frame. A peer that took the hello and then stopped reading fails
// a streamed step of many frames with a timeout after one Timeouts.Write:
// the frames are one write, and the deadline was armed for it once.
func TestStreamedWriteDeadlinePerFlush(t *testing.T) {
	const write = 200 * time.Millisecond
	m := buildShardModel()
	asn := shard.ForModel(m, 1)
	near, far := net.Pipe()
	defer far.Close()
	helloRead := make(chan error, 1)
	go func() {
		_, _, err := ReadFrame(far)
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
	if d.armed != 1 || d.writes != 1 || d.frames != int64(n)+1 {
		t.Errorf("%d frames in %d writes under %d deadlines, want %d frames, one write, one deadline", d.frames, d.writes, d.armed, n+1)
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
				if len(sc.out) != 0 {
					t.Errorf("shard %d: %d bytes of the failed step still queued on the link", s, len(sc.out))
				}
			}
		})
	}
}

// TestLinkWritesPerFlush pins the link's write path at both ends of the
// size range: a sent frame is one Write of prefix and payload together —
// 1 000 bytes or 2 MiB, the whole-set path's contract — queued frames are
// one Write per flush, and none of it allocates once the buffer has grown.
func TestLinkWritesPerFlush(t *testing.T) {
	for _, size := range []int{1000, 2 << 20} {
		near, far := net.Pipe()
		go io.Copy(io.Discard, far)
		cc := &countConn{Conn: near}
		l := &link{}
		l.attach(cc)
		wire := make([]byte, size)
		set := [][]byte{wire}
		round := func() {
			if err := l.send(frame{t: MsgShardPush, step: 1, set: set}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if err := l.queue(frame{t: MsgShardPushTensor, step: 1, arg: uint32(k), body: wire}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.flush(); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if d := cc.snap(); d.writes != 2 || d.frames != 4 {
			t.Errorf("%d-byte wires: one send and one flush of three frames took %d writes of %d frames", size, d.writes, d.frames)
		}
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Errorf("%d-byte wires: %v allocs per send + flush, want 0", size, allocs)
		}
		near.Close()
		far.Close()
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

// coalescedRun is what a flush looks like: per-tensor frames with bodies
// of the given sizes and the end-of-push marker, queued behind one
// another through fc.
func coalescedRun(t testing.TB, fc frameCodec, sizes ...int) (run []byte, frames int) {
	rng := tensor.NewRNG(5)
	for k, size := range sizes {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(rng.Intn(256))
		}
		var err error
		if run, err = fc.appendFrame(run, frame{t: MsgShardPushTensor, step: 7, arg: uint32(k), body: body}); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	run, err := fc.appendFrame(run, frame{t: MsgShardPushEnd, step: 7})
	if err != nil {
		t.Fatal(err)
	}
	return run, frames + 1
}

// TestFrameReaderCoalescedRunAnyChunking: coalescing makes frames
// straddle reads, which a frame per flush almost never did. However the
// stream is cut — a byte at a time, in random pieces up to past the read
// buffer — the reader yields the frames of the whole buffer, and each
// parses as what was queued.
func TestFrameReaderCoalescedRunAnyChunking(t *testing.T) {
	for sub := byte(0); sub < 8; sub += 4 { // plain and checksummed
		fc := fuzzCodec(sub)
		// Bodies from nothing to past the read buffer.
		run, frames := coalescedRun(t, fc, 0, 1, 3, 100, 4091, flushBytes-20, 17, flushBytes+1, 2*flushBytes, 5)
		wantT, wantP, err := readAll(bytes.NewReader(run))
		if err != io.EOF || len(wantT) != frames {
			t.Fatalf("whole buffer: %d of %d frames, then %v", len(wantT), frames, err)
		}
		for k, p := range wantP {
			f, err := fc.parseFrame(wantT[k], p, 7, false)
			if err != nil || (k < frames-1 && int(f.arg) != k) {
				t.Fatalf("frame %d of the run: slot %d, %v", k, f.arg, err)
			}
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
