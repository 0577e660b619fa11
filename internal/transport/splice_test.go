package transport

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// appendEntry appends the entry of slot's wire behind an entry for slot
// prev to dst, the wire copied.
func appendEntry(dst []byte, prev, slot int, wire []byte) []byte {
	q := frames{b: dst, flat: true}
	q.entry(prev, slot, wire)
	return q.b
}

// appendFrame appends f to dst with every wire copied in: the bytes a
// socket is handed for putFrame's frames, in one buffer.
func (fc *frameCodec) appendFrame(dst []byte, f frame) ([]byte, error) {
	q := frames{b: dst, flat: true}
	err := fc.putFrame(&q, f)
	return q.b, err
}

// appendPayload appends what follows f's prefix to dst, every wire copied.
func (fc *frameCodec) appendPayload(dst []byte, f frame) []byte {
	b, _ := fc.appendFrame(nil, f)
	return append(dst, b[frameHeaderLen:]...)
}

// socketBytes is what a link hands the socket for q: its segments, in
// order, in one buffer.
func socketBytes(q *frames) []byte {
	var b []byte
	for _, s := range q.segments(nil) {
		b = append(b, s...)
	}
	return b
}

// recordConn is a connection that only takes writes, and keeps them.
type recordConn struct {
	net.Conn
	got bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.got.Write(p) }

// spliceSizes are the wire lengths on either side of the splice threshold.
var spliceSizes = []int{0, 1, flushBytes - 1, flushBytes, flushBytes + 1, 0, 3*flushBytes + 5, 2}

// TestSplicedFramesMatchCopied holds every frame shape a wire can be
// spliced into to the copied encoding: whole-set push and pull, plain and
// resilient (checksummed), and runs whose entries sit at
// flushBytes − 1, flushBytes and flushBytes + 1, with empty wires and
// several spliced wires in one frame. For each, the bytes the socket is
// handed equal appendFrame's, FrameReader parses them back into the wires
// that were queued, a frame over MaxFrameBytes — counted with its spliced
// bytes — is refused before anything is written, and the servers'
// TrafficBytes count the spliced bytes of a real exchange.
func TestSplicedFramesMatchCopied(t *testing.T) {
	rng := tensor.NewRNG(9)
	wires := make([][]byte, len(spliceSizes))
	for i, n := range spliceSizes {
		wires[i] = make([]byte, n)
		for j := range wires[i] {
			wires[i][j] = byte(rng.Intn(256))
		}
	}
	plain := frameCodec{shard: 3, worker: 2}
	summed := frameCodec{shard: 3, worker: 2, resilient: true}
	for _, c := range []struct {
		name string
		fc   frameCodec
		f    frame
	}{
		{"v2 push", plain, frame{t: MsgShardPush, step: 7, set: wires}},
		{"v2 pull", plain, frame{t: MsgShardPull, step: 7, set: wires}},
		{"v2 push, checksummed", summed, frame{t: MsgShardPush, step: 7, set: wires}},
		{"v2 pull, checksummed", summed, frame{t: MsgShardPull, step: 7, set: wires}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.fc.appendFrame(nil, c.f)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordConn{}
			l := &link{fc: c.fc}
			l.attach(rec)
			if err := l.send(c.f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.got.Bytes(), want) {
				t.Fatalf("socket was handed %d bytes that are not the copied encoding's %d", rec.got.Len(), len(want))
			}
			typ, payload, err := NewFrameReader(&rec.got).ReadFrame()
			if err != nil || typ != c.f.t {
				t.Fatalf("read back type %d: %v", typ, err)
			}
			f, err := c.fc.parseFrame(typ, payload, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ParseWireSetInto(nil, f.body)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wires {
				if !bytes.Equal(got[i], wires[i]) {
					t.Fatalf("wire %d: %d bytes back, want %d", i, len(got[i]), len(wires[i]))
				}
			}
		})
	}

	for _, fc := range []frameCodec{plain, summed} {
		t.Run(fmt.Sprintf("runs, checksum %v", fc.resilient), func(t *testing.T) {
			// Every entry in one run, then the push's end: the streamed push's
			// flush, and the copied run from a link that copies everything.
			rec := &recordConn{}
			l, flat := &link{fc: fc}, &link{fc: fc, out: frames{flat: true}}
			l.attach(rec)
			for _, q := range []*link{l, flat} {
				for k, w := range wires {
					q.entry(MsgShardPushRun, 7, k, w)
				}
				q.endRun(MsgShardPushLast, 7)
			}
			if err := l.flush(); err != nil {
				t.Fatal(err)
			}
			if err := flat.closeRun(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.got.Bytes(), flat.out.b) {
				t.Fatalf("socket was handed %d bytes that are not the copied run's %d", rec.got.Len(), len(flat.out.b))
			}
			typ, payload, err := NewFrameReader(&rec.got).ReadFrame()
			if err != nil || typ != MsgShardPushLast {
				t.Fatalf("read back type %d: %v", typ, err)
			}
			f, err := fc.parseFrame(typ, payload, 7, false)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			if _, err := applyRun(f.body, make([]bool, len(wires)), func(slot int, wire []byte) error {
				if slot != next || !bytes.Equal(wire, wires[slot]) {
					return fmt.Errorf("entry %d: slot %d, %d bytes", next, slot, len(wire))
				}
				next++
				return nil
			}); err != nil || next != len(wires) {
				t.Fatalf("%d of %d entries back: %v", next, len(wires), err)
			}
		})
	}

	t.Run("MaxFrameBytes counts spliced bytes", func(t *testing.T) {
		// Never read or written: the refusal comes first.
		half := make([]byte, MaxFrameBytes/2)
		set := [][]byte{half, half}
		for _, fc := range []frameCodec{plain, summed} {
			rec := &recordConn{}
			cc := &countConn{Conn: rec}
			l := &link{fc: fc}
			l.attach(cc)
			if err := l.send(frame{t: MsgShardPush, step: 7, set: set}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Errorf("resilient %v: a %d-byte wire set sent: %v", fc.resilient, 2*len(half), err)
			}
			l.entry(MsgShardPushRun, 7, 0, half)
			l.entry(MsgShardPushRun, 7, 1, half)
			if err := l.flush(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Errorf("resilient %v: a %d-byte run flushed: %v", fc.resilient, 2*len(half), err)
			}
			if d := cc.snap(); d.writes != 0 || l.out.len() != 0 {
				t.Errorf("resilient %v: %d writes, %d bytes left queued after the refusals, want none", fc.resilient, d.writes, l.out.len())
			}
		}
	})

	t.Run("TrafficBytes", func(t *testing.T) {
		// A head of 128 × 160 weights is an 80 KiB raw wire, spliced both ways.
		x := newF32Exchange(t, func() *nn.Model { return nn.NewMLP(128, nil, 160, 1) }, 1, 1)
		wires, _ := x.workers[0].CompressGrads()
		fc := x.clients[0].fc
		push, _ := fc.appendFrame(nil, frame{t: MsgShardPush, set: wires})
		x.exchange(t)
		pull, _ := fc.appendFrame(nil, frame{t: MsgShardPull, set: x.clients[0].pullWires})
		if err := x.close(); err != nil {
			t.Fatal(err)
		}
		gotPush, gotPull := x.tr.TrafficBytes()
		if gotPush != int64(len(push)-frameHeaderLen) || gotPull != int64(len(pull)-frameHeaderLen) {
			t.Errorf("TrafficBytes %d push, %d pull; the copied frames' payloads are %d and %d",
				gotPush, gotPull, len(push)-frameHeaderLen, len(pull)-frameHeaderLen)
		}
		if ps.WireBytes(wires) < flushBytes {
			t.Fatalf("a %d-byte push splices nothing", ps.WireBytes(wires))
		}
	})
}

// f32Exchange is the lan-f32 shape over loopback TCP: workers, each an
// unplaced Client driven by its own goroutine, exchange SchemeNone wires
// with a session — what NewServer serves, held where a test can see it
// once it has run its steps.
type f32Exchange struct {
	ss      *session
	tr      traffic
	served  chan error
	clients []*Client
	workers []*ps.Worker
	start   []chan int // the step each worker is to run
	done    chan error
	step    int
}

// newF32Exchange seats workers unplaced clients of a session that runs steps
// steps of a ps.Job over build's model, each worker's gradients filled
// once with N(0, 0.01²).
func newF32Exchange(t testing.TB, build func() *nn.Model, workers, steps int) *f32Exchange {
	t.Helper()
	cfg := shardTestConfig(workers, steps)
	cfg.Scheme, cfg.Opts = compress.SchemeNone, compress.Options{}
	global := build()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	x := &f32Exchange{served: make(chan error, 1), done: make(chan error, workers)}
	x.ss = newSession(struct{ StepServer }{ps.NewJob(global, cfg)}, ShardServerConfig{NumShards: 1, Workers: workers, Steps: steps}, ln, &x.tr)
	go func() {
		err := x.ss.fill()
		if err == nil {
			err = x.ss.run()
		}
		x.ss.close()
		x.served <- err
	}()
	for w := 0; w < workers; w++ {
		cl, err := DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		m := build()
		m.CopyParamsFrom(global)
		wk := ps.NewWorker(w, m, cfg)
		rng := tensor.NewRNG(31 + uint64(w))
		for _, p := range m.Params() {
			tensor.FillNormal(p.G, 0.01, rng)
		}
		start := make(chan int)
		go func() {
			for step := range start {
				wires, _ := wk.CompressGrads()
				pull, err := cl.PushPull(step, wires)
				if err == nil {
					_, err = wk.ApplyPull(pull)
				}
				x.done <- err
			}
		}()
		x.clients, x.workers, x.start = append(x.clients, cl), append(x.workers, wk), append(x.start, start)
	}
	return x
}

// exchange runs one step of every worker.
func (x *f32Exchange) exchange(t testing.TB) {
	for _, start := range x.start {
		start <- x.step
	}
	for range x.start {
		if err := <-x.done; err != nil {
			t.Fatalf("step %d: %v", x.step, err)
		}
	}
	x.step++
}

// close stops the workers and hangs up, returning what the session's run
// returned: nil once it has served its steps.
func (x *f32Exchange) close() error {
	for _, start := range x.start {
		close(start)
	}
	for _, cl := range x.clients {
		cl.Close()
	}
	return <-x.served
}

// TestFloat32ExchangeCopiesNothing pins the mechanism behind the float32
// baseline's exchange: two workers push a 1M-element SchemeNone tensor
// through NewServer's session and are sent the pull, and no buffer of the
// transport holds a copy of it — every client queue and the session's
// cached pull stay under 2·flushBytes of capacity, because the wires are
// spliced — at 0 allocations a step once warm (not asserted under the
// race detector, which allocates on its own).
func TestFloat32ExchangeCopiesNothing(t *testing.T) {
	const warm, runs = 3, 10
	// testing.AllocsPerRun makes one more call than it counts.
	x := newF32Exchange(t, func() *nn.Model { return nn.NewMLP(1024, nil, 1024, 1) }, 2, warm+1+runs)
	for range warm {
		x.exchange(t)
	}
	allocs := testing.AllocsPerRun(runs, func() { x.exchange(t) })
	if err := x.close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 && !raceDetector {
		t.Errorf("%v allocs a step, want 0", allocs)
	}
	for w, cl := range x.clients {
		if c := cap(cl.out.b); c >= 2*flushBytes {
			t.Errorf("worker %d's queue grew to %d bytes: a copy of its push", w, c)
		}
	}
	for o := range x.ss.pullBuf {
		for k := range x.ss.pullBuf[o] {
			if c := cap(x.ss.pullBuf[o][k].b); c >= 2*flushBytes {
				t.Errorf("the cached pull %d/%d grew to %d bytes: a copy of the pull", o, k, c)
			}
		}
	}
	if x.ss.pullAt[0][0] != x.step-1 {
		t.Errorf("the plain pull was last built at step %d, want %d", x.ss.pullAt[0][0], x.step-1)
	}
}
