package ps

import (
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

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
// recycled: it must show 0 allocs/op under -benchmem. The worker is the owner, so it applies the pull it is sent
// (Job.OwnerPull) and takes the step of its owner-only tensors itself.
// fill draws each gradient once; every step hands the worker the same one
// as a backward pass would — ZeroGrad, then an add into G — so a 3LC
// tensor, whose G is its push context's error buffer, pushes e + g. That
// add is backward's work, not the codec's, and runs with the timer off.
func benchSteadyStatePushPull(b *testing.B, model func(seed uint64) *nn.Model, fill func(g *tensor.Tensor, rng *tensor.RNG)) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 1)
	global := model(1)
	server := NewJob(global, cfg)
	m := model(1)
	m.CopyParamsFrom(global)
	worker := NewWorker(0, m, cfg)

	rng := tensor.NewRNG(31)
	var grads []*tensor.Tensor
	for _, p := range m.Params() {
		g := tensor.New(p.G.Shape()...)
		fill(g, rng)
		grads = append(grads, g)
	}
	step := func() {
		b.StopTimer()
		m.ZeroGrad()
		for i, p := range m.Params() {
			p.G.Add(grads[i])
		}
		b.StartTimer()
		steadyStep(b, server, worker)
	}
	// Warm up buffer capacities.
	for i := 0; i < 3; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
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

// BenchmarkWorkerCompressF32 is the worker side of the float32 baseline
// at the end-to-end benchmark's lan-f32 shape: CompressGrads on both
// workers of the 768-1024-1024-10 MLP (1.85M parameters). Each push wire
// is a view of the replica's G (NewWorker), so an op copies no gradient
// and allocates nothing; what is left is the owner's step of its
// batch-norm tensors, whose update it pushes (ps.Pushes).
func BenchmarkWorkerCompressF32(b *testing.B) {
	cfg := testConfig(compress.SchemeNone, compress.Options{}, 2)
	rng := tensor.NewRNG(31)
	workers := make([]*Worker, cfg.Workers)
	for id := range workers {
		m := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
		for _, p := range m.Params() {
			tensor.FillNormal(p.G, 0.01, rng)
		}
		workers[id] = NewWorker(id, m, cfg)
	}
	step := func() {
		for _, w := range workers {
			w.CompressGrads()
		}
	}
	step() // converge buffer capacities
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

// BenchmarkWorkerStep3LC is the worker side of a 3LC step at the
// end-to-end benchmark's lan-3lc shape: TrainStep and CompressGrads on
// both workers of the 768-1024-1024-10 MLP (1.85M parameters, batch 4,
// s = 1.75 with zero-run encoding). Each Linear weight's backward records
// its block maxima as it writes G (nn.Param.RecordMax), so the push's
// pass 1 reads nothing and the encode visits only the blocks that can
// quantize; an op allocates nothing.
func BenchmarkWorkerStep3LC(b *testing.B) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 2)
	cfg.MinCompressElems = 256
	rng := tensor.NewRNG(33)
	x := tensor.New(4, 768)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 3, 7, 9}
	workers := make([]*Worker, cfg.Workers)
	for id := range workers {
		workers[id] = NewWorker(id, nn.NewMLP(768, []int{1024, 1024}, 10, 1), cfg)
	}
	step := func() {
		for _, w := range workers {
			w.Model.TrainStep(x, labels)
			w.CompressGrads()
		}
	}
	step() // converge workspaces and buffer capacities
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
