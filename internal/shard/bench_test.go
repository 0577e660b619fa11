package shard

import (
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// benchConfig mirrors the ps package's SteadyStatePushPull workload so
// the cluster hop's cost is directly comparable: same model scale, same
// codec, same serial decode path.
func benchConfig() ps.Config {
	return ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
		Workers:          1,
		MinCompressElems: 8,
		Parallelism:      1,
		Optimizer: opt.SGDConfig{
			BaseLR: 0.1, FinalLR: 0.01, Momentum: 0.9, WeightDecay: 1e-4,
			Workers: 1, TotalSteps: 100, WarmupFrac: 0,
		},
	}
}

func benchTierModel(seed uint64) *nn.Model {
	return nn.NewMLP(784, []int{256}, 10, seed)
}

// BenchmarkClusterPushPull is the parity gate for the sharded tier's
// pipeline: one shard, driven through NewCluster's JobHandle — the queue
// hop to the shard's executor goroutine and back — against the same
// workload BenchmarkSteadyStatePushPull runs directly on a ps server. The
// benchcheck speedup rule pins this at >=0.95x of the direct path: the
// pipeline must stay out of the hot path.
func BenchmarkClusterPushPull(b *testing.B) {
	cfg := benchConfig()
	global := benchTierModel(1)
	h, err := NewCluster(global, cfg, Config{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	m := benchTierModel(1)
	m.CopyParamsFrom(global)
	worker := ps.NewWorker(0, m, cfg)

	rng := tensor.NewRNG(31)
	for _, p := range worker.Model.Params() {
		tensor.FillNormal(p.G, 0.01, rng)
	}
	var view [][]byte // the pull as the worker, the owner, is sent it
	step := func() {
		wires, _ := worker.CompressGrads()
		h.BeginStep()
		sess := h.BeginPush(0)
		if err := sess.Set(wires); err != nil {
			b.Fatal(err)
		}
		if err := sess.End(); err != nil {
			b.Fatal(err)
		}
		pull, _, err := h.FinishStep()
		if err != nil {
			b.Fatal(err)
		}
		view = ps.OwnerView(global.Params(), pull, view)
		if _, err := worker.ApplyPull(view); err != nil {
			b.Fatal(err)
		}
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
