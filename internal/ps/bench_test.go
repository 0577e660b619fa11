package ps

import (
	"sync/atomic"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 100} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n)
			parallelFor(n, workers, func(i int) {
				hits.Add(1)
				if seen[i].Swap(true) {
					t.Errorf("workers=%d n=%d: index %d visited twice", workers, n, i)
				}
			})
			if int(hits.Load()) != n {
				t.Errorf("workers=%d n=%d: %d calls", workers, n, hits.Load())
			}
		}
	}
}

// TestParallelismMatchesSerial pins the determinism contract of the
// parallel codec fan-out: a run with Parallelism 8 must produce byte-for-
// byte the same push and pull wires as Parallelism 1, because every tensor
// owns its context and its output slot.
func TestParallelismMatchesSerial(t *testing.T) {
	mkPair := func(par int) (*Job, *Worker) {
		cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}, 1)
		cfg.Parallelism = par
		global := testModel(1)
		server := NewJob(global, cfg)
		m := testModel(1)
		m.CopyParamsFrom(global)
		return server, NewWorker(0, m, cfg)
	}
	sSerial, wSerial := mkPair(1)
	sPar, wPar := mkPair(8)

	rng := tensor.NewRNG(21)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}

	for step := 0; step < 4; step++ {
		wSerial.Model.TrainStep(x, labels)
		wPar.Model.TrainStep(x, labels)

		wiresSerial, _ := wSerial.CompressGrads()
		wiresPar, _ := wPar.CompressGrads()
		if len(wiresSerial) != len(wiresPar) {
			t.Fatal("wire count mismatch")
		}
		for i := range wiresSerial {
			if string(wiresSerial[i]) != string(wiresPar[i]) {
				t.Fatalf("step %d: push wire %d differs between serial and parallel", step, i)
			}
		}

		sSerial.BeginStep()
		sPar.BeginStep()
		if _, err := sSerial.AddPush(0, wiresSerial); err != nil {
			t.Fatal(err)
		}
		if _, err := sPar.AddPush(0, wiresPar); err != nil {
			t.Fatal(err)
		}
		pullSerial, _, err := sSerial.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		pullPar, _, err := sPar.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for i := range pullSerial {
			if string(pullSerial[i]) != string(pullPar[i]) {
				t.Fatalf("step %d: pull wire %d differs between serial and parallel", step, i)
			}
		}
		if _, err := wSerial.ApplyPull(pullSerial); err != nil {
			t.Fatal(err)
		}
		if _, err := wPar.ApplyPull(pullPar); err != nil {
			t.Fatal(err)
		}
	}
}

// benchModel is sized so the codec hot path dominates the measurement
// (largest tensor ~200k elements, ResNet-convlayer scale) instead of the
// per-step fixed overhead a toy model would measure.
func benchModel(seed uint64) *nn.Model {
	return nn.NewMLP(784, []int{256}, 10, seed)
}

// tinyModel is the many-tiny-tensor workload: ~200 tensors of at most 64
// elements (100 hidden layers of width 8), where per-tensor dispatch
// overhead rivals the kernel work itself.
func tinyModel(seed uint64) *nn.Model {
	hidden := make([]int, 100)
	for i := range hidden {
		hidden[i] = 8
	}
	return nn.NewMLP(8, hidden, 3, seed)
}

// benchSteadyStatePushPull measures one full codec round trip of the
// parameter-server hot path — worker compress, server decode+aggregate,
// server update+shared-pull compress, worker apply — with all buffers
// recycled, in the serial configuration: it must show 0 allocs/op under
// -benchmem (the parallel pool's goroutine spawns are the only allocs
// otherwise). The worker is the owner, so it applies the pull it is sent
// (Job.OwnerPull) and takes the step of its owner-only tensors itself.
// fill sets each gradient once; every step pushes the same.
func benchSteadyStatePushPull(b *testing.B, model func(seed uint64) *nn.Model, fill func(g *tensor.Tensor, rng *tensor.RNG)) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 1)
	cfg.Parallelism = 1
	global := model(1)
	server := NewJob(global, cfg)
	m := model(1)
	m.CopyParamsFrom(global)
	worker := NewWorker(0, m, cfg)

	rng := tensor.NewRNG(31)
	for _, p := range worker.Model.Params() {
		fill(p.G, rng)
	}
	// Warm up buffer capacities.
	for i := 0; i < 3; i++ {
		steadyStep(b, server, worker)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyStep(b, server, worker)
	}
}

// gaussianGrads fills g with N(0, 0.01²): under error feedback at s = 1.75
// its non-zero digits scatter over every block of a tensor.
func gaussianGrads(g *tensor.Tensor, rng *tensor.RNG) { tensor.FillNormal(g, 0.01, rng) }

// clusteredGrads fills g the way a large layer's gradient clusters: zero
// but for one row of 1 024 Gaussian values per 128K elements (the kernel
// benchmarks' clustered input), so a push of it holds non-zero digits in
// about 1 % of the tensor's 1 280-element blocks (lan-3lc's pushes: 1.8 %).
// A tensor under 8 blocks keeps the Gaussian.
func clusteredGrads(g *tensor.Tensor, rng *tensor.RNG) {
	const row = 1024
	n := g.Len()
	if n < 8*kernel.BlockElems {
		gaussianGrads(g, rng)
		return
	}
	g.Zero()
	for r := 0; r < max(1, n>>17); r++ {
		off := rng.Intn(n - row + 1)
		for i := off; i < off+row; i++ {
			g.Data()[i] = float32(rng.Norm() * 0.01)
		}
	}
}

func BenchmarkSteadyStatePushPull(b *testing.B) {
	benchSteadyStatePushPull(b, benchModel, gaussianGrads)
}

// BenchmarkSteadyStatePushPullClustered is SteadyStatePushPull's twin with
// clustered pushes (clusteredGrads): the server decode-adds each into a
// gradient sum whose other blocks stay dead — nothing zero-fills them —
// and its optimizer sweep reads the live blocks alone, while the worker's
// encode skips the blocks that cannot quantize. CI gates it against the
// Gaussian twin, where every block is live.
func BenchmarkSteadyStatePushPullClustered(b *testing.B) {
	benchSteadyStatePushPull(b, benchModel, clusteredGrads)
}

// BenchmarkSteadyStatePushPullTiny is the round trip where the per-tensor
// cost, not the kernels, is what is measured.
func BenchmarkSteadyStatePushPullTiny(b *testing.B) {
	benchSteadyStatePushPull(b, tinyModel, gaussianGrads)
}

// BenchmarkSteadyStatePushPullF32 is the float32 baseline's round trip at
// the end-to-end benchmark's scale: the 768-1024-1024-10 MLP (1.85M
// parameters, 7.4 MB a tensor set) as SchemeNone between two workers and
// the server, in process — two raw encodes, a first add and an add, the
// delta-writing SGD sweep, one shared pull encode and two raw applies a
// step, every one a kernel raw core.
func BenchmarkSteadyStatePushPullF32(b *testing.B) {
	cfg := testConfig(compress.SchemeNone, compress.Options{}, 2)
	cfg.Parallelism = 1
	global := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
	server := NewJob(global, cfg)
	workers := make([]*Worker, cfg.Workers)
	rng := tensor.NewRNG(31)
	for id := range workers {
		m := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
		m.CopyParamsFrom(global)
		workers[id] = NewWorker(id, m, cfg)
		for _, p := range m.Params() {
			tensor.FillNormal(p.G, 0.01, rng)
		}
	}
	step := func() {
		server.BeginStep()
		for id, w := range workers {
			wires, _ := w.CompressGrads()
			if _, err := server.AddPush(id, wires); err != nil {
				b.Fatal(err)
			}
		}
		pull, _, err := server.FinishStep()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range workers {
			if _, err := w.ApplyPull(pull); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		step() // converge buffer capacities
	}
	b.SetBytes(4 * int64(global.NumParams()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func steadyStep(b *testing.B, server *Job, worker *Worker) {
	b.Helper()
	wires, _ := worker.CompressGrads()
	server.BeginStep()
	if _, err := server.AddPush(0, wires); err != nil {
		b.Fatal(err)
	}
	if _, _, err := server.FinishStep(); err != nil {
		b.Fatal(err)
	}
	if _, err := worker.ApplyPull(server.OwnerPull()); err != nil {
		b.Fatal(err)
	}
}
