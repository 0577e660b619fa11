package transport

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, MsgPush, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPush || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type %d payload %v", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgShardBye, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := NewFrameReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgShardBye || len(got) != 0 {
		t.Fatalf("empty frame: type %d, %d bytes", typ, len(got))
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgPush, []byte{1, 2, 3})
	raw := buf.Bytes()[:buf.Len()-2]
	if _, _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); err == nil {
		t.Error("expected error on truncated frame")
	}
}

func TestFrameBadLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); err == nil {
		t.Error("expected error on oversized length prefix")
	}
	raw = []byte{0, 0, 0, 0}
	if _, _, err := NewFrameReader(bytes.NewReader(raw)).ReadFrame(); err == nil {
		t.Error("expected error on zero length")
	}
}

func TestWireSetRoundTrip(t *testing.T) {
	wires := [][]byte{{1, 2, 3}, nil, {}, {4}}
	enc := AppendWireSet(nil, wires)
	dec, n, err := ParseWireSetInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	if len(dec) != 4 {
		t.Fatalf("decoded %d wires", len(dec))
	}
	if !bytes.Equal(dec[0], []byte{1, 2, 3}) || dec[1] != nil || dec[2] != nil || !bytes.Equal(dec[3], []byte{4}) {
		t.Errorf("wire set content mismatch: %v", dec)
	}
}

func TestWireSetTruncation(t *testing.T) {
	enc := AppendWireSet(nil, [][]byte{{1, 2, 3, 4, 5}})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := ParseWireSetInto(nil, enc[:cut]); err == nil {
			t.Errorf("no error at truncation %d", cut)
		}
	}
}

// TestTCPTrainingMatchesInProcess runs a short distributed training over
// real loopback TCP and verifies the global model lands exactly where the
// in-process driver puts it.
func TestTCPTrainingMatchesInProcess(t *testing.T) {
	const workers = 3
	const steps = 8
	build := func() *nn.Model { return nn.NewMLP(8, []int{6}, 3, 1) }
	psCfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.5, ZeroRun: true},
		Workers:          workers,
		MinCompressElems: 8,
		Optimizer: opt.SGDConfig{BaseLR: 0.05, FinalLR: 0.01, Momentum: 0.9,
			WeightDecay: 1e-4, Workers: workers, TotalSteps: steps},
	}

	// Deterministic per-worker batches shared by both executions.
	type batch struct {
		x      *tensor.Tensor
		labels []int
	}
	batches := make([][]batch, workers)
	rng := tensor.NewRNG(7)
	for w := 0; w < workers; w++ {
		for s := 0; s < steps; s++ {
			x := tensor.New(4, 8)
			tensor.FillNormal(x, 1, rng)
			batches[w] = append(batches[w], batch{x: x, labels: []int{0, 1, 2, 0}})
		}
	}

	// Reference: in-process execution.
	refGlobal := build()
	refServer := ps.NewJob(refGlobal, psCfg)
	refWorkers := make([]*ps.Worker, workers)
	for w := 0; w < workers; w++ {
		m := build()
		m.CopyParamsFrom(refGlobal)
		refWorkers[w] = ps.NewWorker(w, m, psCfg)
	}
	for s := 0; s < steps; s++ {
		refServer.BeginStep()
		for w := 0; w < workers; w++ {
			refWorkers[w].Model.TrainStep(batches[w][s].x, batches[w][s].labels)
			wires, _ := refWorkers[w].CompressGrads()
			if _, err := refServer.AddPush(w, wires); err != nil {
				t.Fatal(err)
			}
		}
		pull, _, err := refServer.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if _, err := refWorkers[w].ApplyPull(pull); err != nil {
				t.Fatal(err)
			}
		}
	}

	// TCP execution.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpGlobal := build()
	tcpServer := NewServer(ln, ps.NewJob(tcpGlobal, psCfg), workers, steps)
	serveErr := make(chan error, 1)
	go func() { serveErr <- tcpServer.Serve() }()

	var wg sync.WaitGroup
	workerErr := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := build()
			m.CopyParamsFrom(tcpGlobal)
			worker := ps.NewWorker(w, m, psCfg)
			client, err := DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, nil)
			if err != nil {
				workerErr <- err
				return
			}
			defer client.Close()
			for s := 0; s < steps; s++ {
				worker.Model.TrainStep(batches[w][s].x, batches[w][s].labels)
				wires, _ := worker.CompressGrads()
				pull, err := client.PushPull(s, wires)
				if err != nil {
					workerErr <- err
					return
				}
				if _, err := worker.ApplyPull(pull); err != nil {
					workerErr <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(workerErr)
	for err := range workerErr {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}

	// Global models must match exactly: the TCP path moves the same bytes.
	rp, tp := refGlobal.Params(), tcpGlobal.Params()
	for i := range rp {
		if !rp[i].W.Equal(tp[i].W) {
			t.Errorf("parameter %s differs between TCP and in-process runs", rp[i].Name)
		}
	}

	push, pull := tcpServer.TrafficBytes()
	if push == 0 || pull == 0 {
		t.Error("server accounted no traffic")
	}
}

// TestTCPAllCodecsMatchInProcess extends the TCP-vs-in-process
// equivalence gate to every registered codec: the fused kernels behind
// the ternary schemes (and the staged paths behind the rest) must move
// byte-identical wires over real sockets, landing the global model on
// bit-identical weights. The codec list mirrors internal/shard's
// allCodecs, which TestAllCodecsCoverRegistry pins to the registry.
func TestTCPAllCodecsMatchInProcess(t *testing.T) {
	codecs := []struct {
		name string
		s    compress.Scheme
		o    compress.Options
	}{
		{"float32", compress.SchemeNone, compress.Options{}},
		{"int8", compress.SchemeInt8, compress.Options{}},
		{"3lc", compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}},
		{"stoch3", compress.SchemeStoch3QE, compress.Options{Seed: 9}},
		{"mqe1bit", compress.SchemeMQE1Bit, compress.Options{}},
		{"topk", compress.SchemeTopK, compress.Options{Fraction: 0.3, Seed: 9}},
		{"localsteps", compress.SchemeLocalSteps, compress.Options{Interval: 2}},
	}
	covered := map[compress.Scheme]bool{}
	for _, c := range codecs {
		covered[c.s] = true
	}
	// SchemePacked32 is no design but what a compressing design's exempt
	// tensors travel as: it is covered by the wires the clients below see
	// cross the socket, not by the list above.
	var packedPush, packedPull atomic.Int64
	countPacked := func(wires [][]byte) (n int64) {
		for _, wire := range wires {
			if len(wire) > 0 && compress.Scheme(wire[0]) == compress.SchemePacked32 {
				n++
			}
		}
		return n
	}

	const workers, steps = 2, 4
	// Hidden width 24: batch-norm vectors long enough to be packed.
	build := func() *nn.Model { return nn.NewMLP(8, []int{24}, 3, 1) }
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			pushed, pulled := packedPush.Load(), packedPull.Load()
			defer func() {
				pushed, pulled = packedPush.Load()-pushed, packedPull.Load()-pulled
				if compresses := codec.s != compress.SchemeNone; (pushed > 0) != compresses || (pulled > 0) != compresses {
					t.Errorf("%d packed push wires and %d packed pull wires crossed the socket under design %v", pushed, pulled, codec.s)
				}
			}()
			psCfg := ps.Config{
				Scheme:           codec.s,
				Opts:             codec.o,
				Workers:          workers,
				MinCompressElems: 1,
				Parallelism:      1,
				Optimizer:        opt.DefaultSGDConfig(workers, steps),
			}
			type batch struct {
				x      *tensor.Tensor
				labels []int
			}
			batches := make([][]batch, workers)
			rng := tensor.NewRNG(7)
			for w := 0; w < workers; w++ {
				for s := 0; s < steps; s++ {
					x := tensor.New(4, 8)
					tensor.FillNormal(x, 1, rng)
					batches[w] = append(batches[w], batch{x: x, labels: []int{0, 1, 2, 0}})
				}
			}

			// In-process reference.
			refGlobal := build()
			refServer := ps.NewJob(refGlobal, psCfg)
			refWorkers := make([]*ps.Worker, workers)
			for w := 0; w < workers; w++ {
				m := build()
				m.CopyParamsFrom(refGlobal)
				refWorkers[w] = ps.NewWorker(w, m, psCfg)
			}
			for s := 0; s < steps; s++ {
				refServer.BeginStep()
				for w := 0; w < workers; w++ {
					refWorkers[w].Model.TrainStep(batches[w][s].x, batches[w][s].labels)
					wires, _ := refWorkers[w].CompressGrads()
					if _, err := refServer.AddPush(w, wires); err != nil {
						t.Fatal(err)
					}
				}
				pull, _, err := refServer.FinishStep()
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < workers; w++ {
					if _, err := refWorkers[w].ApplyPull(pull); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Same workload over loopback TCP.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tcpGlobal := build()
			tcpServer := NewServer(ln, ps.NewJob(tcpGlobal, psCfg), workers, steps)
			serveErr := make(chan error, 1)
			go func() { serveErr <- tcpServer.Serve() }()

			var wg sync.WaitGroup
			workerErr := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					m := build()
					m.CopyParamsFrom(tcpGlobal)
					worker := ps.NewWorker(w, m, psCfg)
					client, err := DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, nil)
					if err != nil {
						workerErr <- err
						return
					}
					defer client.Close()
					for s := 0; s < steps; s++ {
						worker.Model.TrainStep(batches[w][s].x, batches[w][s].labels)
						wires, _ := worker.CompressGrads()
						packedPush.Add(countPacked(wires))
						pull, err := client.PushPull(s, wires)
						if err != nil {
							workerErr <- err
							return
						}
						packedPull.Add(countPacked(pull))
						if _, err := worker.ApplyPull(pull); err != nil {
							workerErr <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(workerErr)
			for err := range workerErr {
				t.Fatal(err)
			}
			if err := <-serveErr; err != nil {
				t.Fatal(err)
			}

			rp, tp := refGlobal.Params(), tcpGlobal.Params()
			for i := range rp {
				if !rp[i].W.Equal(tp[i].W) {
					t.Errorf("parameter %s differs between TCP and in-process runs", rp[i].Name)
				}
			}
		})
	}

	covered[compress.SchemePacked32] = packedPush.Load() > 0 && packedPull.Load() > 0
	for _, s := range compress.RegisteredSchemes() {
		if !covered[s] {
			t.Errorf("registered scheme %v has no TCP-equivalence coverage", s)
		}
	}
}

func TestServerRejectsDuplicateWorkerID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *nn.Model { return nn.NewMLP(4, []int{3}, 2, 1) }
	psCfg := ps.Config{Scheme: compress.SchemeNone, Workers: 2, MinCompressElems: 4,
		Optimizer: opt.DefaultSGDConfig(2, 1)}
	srv := NewServer(ln, ps.NewJob(build(), psCfg), 2, 1)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c1, err := DialTimeoutDialer(ln.Addr().String(), 0, Timeouts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialTimeoutDialer(ln.Addr().String(), 0, Timeouts{}, nil) // duplicate id
	if err == nil {
		defer c2.Close()
	}
	if err := <-done; err == nil {
		t.Error("server should reject duplicate worker id")
	}
}

func TestClientStepMismatch(t *testing.T) {
	// A worker pushing the wrong step number violates the BSP barrier.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *nn.Model { return nn.NewMLP(4, []int{3}, 2, 1) }
	psCfg := ps.Config{Scheme: compress.SchemeNone, Workers: 1, MinCompressElems: 4,
		Optimizer: opt.DefaultSGDConfig(1, 2)}
	srv := NewServer(ln, ps.NewJob(build(), psCfg), 1, 2)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	client, err := DialTimeoutDialer(ln.Addr().String(), 0, Timeouts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	m := build()
	w := ps.NewWorker(0, m, psCfg)
	m.TrainStep(tensor.New(2, 4), []int{0, 1})
	wires, _ := w.CompressGrads()
	if _, err := client.PushPull(5, wires); err == nil {
		// The server kills the connection; PushPull should error either
		// on read or on a later step.
		t.Log("first PushPull returned nil; server error expected instead")
	}
	if err := <-done; err == nil {
		t.Error("server should reject out-of-step push")
	}
}
