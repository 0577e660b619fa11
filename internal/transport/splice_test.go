package transport

import (
	"bytes"
	"fmt"
	"io"
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
	q.putEntry(prev, slot, wire)
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

// pushedBytes is what a client of fc's hands the socket for wires as
// step 7's push (Client.put, then the last run), its queue flat or
// splicing.
func pushedBytes(t testing.TB, fc frameCodec, wires [][]byte, flat bool) []byte {
	t.Helper()
	rec := &recordConn{}
	c := &Client{link: link{fc: fc, out: frames{flat: flat}}}
	c.attach(rec)
	for k, w := range wires {
		if err := c.put(7, k, w); err != nil {
			t.Fatal(err)
		}
	}
	c.out.endRun(&c.fc, MsgShardPushLast, 7)
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	return rec.got.Bytes()
}

// pulledBytes is what a session of fc's hands the socket for wires as
// step 7's pull (frames.putRuns), its cached pull flat or splicing.
func pulledBytes(t testing.TB, fc frameCodec, wires [][]byte, flat bool) []byte {
	t.Helper()
	q := frames{flat: flat}
	if err := q.putRuns(&fc, MsgShardPullRun, 7, wires); err != nil {
		t.Fatal(err)
	}
	return socketBytes(&q)
}

// readStream reads the frames of b through fc as one stream of n slots,
// each run into a buffer of its own, and returns it with the frames' types.
func readStream(t testing.TB, fc frameCodec, b []byte, n int) (*seq, []MsgType) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(b))
	q := &seq{}
	var types []MsgType
	for q.reset(); ; {
		typ, payload, err := fr.ReadFrameInto(q.next())
		if err == io.EOF {
			return q, types
		}
		if err != nil {
			t.Fatal(err)
		}
		f, err := fc.parseFrame(typ, payload, 7, false)
		if err == nil {
			err = q.take(f.body, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, typ)
	}
}

// TestSplicedFramesMatchCopied holds every frame shape a wire can be
// spliced into to the copied encoding: a push's and a pull's stream of
// runs on the shard wire, plain and resilient (checksummed), and runs
// whose entries sit at flushBytes − 1, flushBytes and flushBytes + 1,
// with empty wires and several spliced wires in one frame. For each, the
// bytes the socket is handed equal the copied encoding's, FrameReader
// parses them back into the wires that were queued, a frame over
// MaxFrameBytes — counted with its spliced bytes — is refused before
// anything is written, and the servers' TrafficBytes count the spliced
// bytes of a real exchange.
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
		send func(t testing.TB, fc frameCodec, wires [][]byte, flat bool) []byte
		last MsgType // the stream's last frame
	}{
		{"v2 push", plain, pushedBytes, MsgShardPushLast},
		{"v2 pull", plain, pulledBytes, MsgShardPullRun},
		{"v2 push, checksummed", summed, pushedBytes, MsgShardPushLast},
		{"v2 pull, checksummed", summed, pulledBytes, MsgShardPullRun},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.send(t, c.fc, wires, false), c.send(t, c.fc, wires, true)
			if !bytes.Equal(got, want) {
				t.Fatalf("socket was handed %d bytes that are not the copied encoding's %d", len(got), len(want))
			}
			q, types := readStream(t, c.fc, got, len(wires))
			if len(types) < 2 || types[len(types)-1] != c.last {
				t.Fatalf("read back types %v: want runs past flushBytes, ending in type %d", types, c.last)
			}
			for i := range wires {
				if !bytes.Equal(q.wires[i], wires[i]) {
					t.Fatalf("wire %d: %d bytes back, want %d", i, len(q.wires[i]), len(wires[i]))
				}
			}
		})
	}

	for _, fc := range []frameCodec{plain, summed} {
		t.Run(fmt.Sprintf("runs, checksum %v", fc.resilient), func(t *testing.T) {
			// Every entry in one run, then the push's end: a streamed push's
			// flush, and the copied run from a link that copies everything.
			rec := &recordConn{}
			l, flat := &link{fc: fc}, &link{fc: fc, out: frames{flat: true}}
			l.attach(rec)
			for _, q := range []*link{l, flat} {
				for k, w := range wires {
					q.out.entry(&q.fc, MsgShardPushRun, 7, k, w)
				}
				q.out.endRun(&q.fc, MsgShardPushLast, 7)
			}
			if err := l.flush(); err != nil {
				t.Fatal(err)
			}
			if err := flat.out.closeRun(&flat.fc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.got.Bytes(), flat.out.b) {
				t.Fatalf("socket was handed %d bytes that are not the copied run's %d", rec.got.Len(), len(flat.out.b))
			}
			q, types := readStream(t, fc, rec.got.Bytes(), len(wires))
			if len(types) != 1 || types[0] != MsgShardPushLast || q.got != len(wires) {
				t.Fatalf("read back types %v, %d of %d entries", types, q.got, len(wires))
			}
			for i := range wires {
				if !bytes.Equal(q.wires[i], wires[i]) {
					t.Fatalf("entry %d: %d bytes back, want %d", i, len(q.wires[i]), len(wires[i]))
				}
			}
		})
	}

	t.Run("MaxFrameBytes counts spliced bytes", func(t *testing.T) {
		// Never read or written: the refusal comes first.
		half := make([]byte, MaxFrameBytes/2)
		for _, fc := range []frameCodec{plain, summed} {
			rec := &recordConn{}
			cc := &countConn{Conn: rec}
			l := &link{fc: fc}
			l.attach(cc)
			l.out.entry(&l.fc, MsgShardPushRun, 7, 0, half)
			l.out.entry(&l.fc, MsgShardPushRun, 7, 1, half)
			if err := l.flush(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Errorf("resilient %v: a %d-byte run flushed: %v", fc.resilient, 2*len(half), err)
			}
			if d := cc.snap(); d.writes != 0 || l.out.len() != 0 {
				t.Errorf("resilient %v: %d writes, %d bytes left queued after the refusal, want none", fc.resilient, d.writes, l.out.len())
			}
		}
	})

	t.Run("TrafficBytes", func(t *testing.T) {
		// A head of 128 × 160 weights is an 80 KiB raw wire, spliced both ways.
		x := newF32Exchange(t, func() *nn.Model { return nn.NewMLP(128, nil, 160, 1) }, 1, 1)
		wires, _ := x.workers[0].CompressGrads()
		fc := x.clients[0].fc
		push := pushedBytes(t, fc, wires, true)
		x.exchange(t)
		pull := pulledBytes(t, fc, x.clients[0].pulled.wires, true)
		if err := x.close(); err != nil {
			t.Fatal(err)
		}
		_, pushTypes := readStream(t, fc, push, len(wires))
		_, pullTypes := readStream(t, fc, pull, len(wires))
		wantPush, wantPull := len(push)-frameHeaderLen*len(pushTypes), len(pull)-frameHeaderLen*len(pullTypes)
		if gotPush, gotPull := x.tr.TrafficBytes(); gotPush != int64(wantPush) || gotPull != int64(wantPull) {
			t.Errorf("TrafficBytes %d push, %d pull; the copied frames' payloads are %d and %d", gotPush, gotPull, wantPush, wantPull)
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
