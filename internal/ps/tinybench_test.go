package ps

import (
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// tinyModel is the small-tensor batching workload: ~200 tensors of at
// most 64 elements (100 hidden layers of width 8), where per-tensor
// dispatch overhead rivals the kernel work itself.
func tinyModel(seed uint64) *nn.Model {
	hidden := make([]int, 100)
	for i := range hidden {
		hidden[i] = 8
	}
	return nn.NewMLP(8, hidden, 3, seed)
}

func benchTinyPushPull(b *testing.B, smallTensorElems int) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 1)
	cfg.Parallelism = 1
	cfg.SmallTensorElems = smallTensorElems
	global := tinyModel(1)
	server := NewJob(global, cfg)
	m := tinyModel(1)
	m.CopyParamsFrom(global)
	worker := NewWorker(0, m, cfg)

	rng := tensor.NewRNG(31)
	for _, p := range worker.Model.Params() {
		tensor.FillNormal(p.G, 0.01, rng)
	}
	for i := 0; i < 3; i++ { // converge buffer capacities
		steadyStep(b, server, worker)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyStep(b, server, worker)
	}
}

// BenchmarkSteadyStatePushPullTiny measures one full codec round trip on
// the many-tiny-tensor model with small-tensor batching on (the default):
// the batched tensors compress as one pool job over a contiguous arena.
// Serial configuration — must be 0 allocs/op under -benchmem; benchcheck
// gates it against the unbatched variant.
func BenchmarkSteadyStatePushPullTiny(b *testing.B) {
	benchTinyPushPull(b, 0)
}

// BenchmarkSteadyStatePushPullTinyUnbatched is the same round trip with
// batching disabled (per-tensor contexts and pool jobs throughout): the
// dispatch-overhead baseline the batched path is gated against.
func BenchmarkSteadyStatePushPullTinyUnbatched(b *testing.B) {
	benchTinyPushPull(b, -1)
}
