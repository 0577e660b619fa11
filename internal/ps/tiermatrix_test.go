package ps

import (
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// TestAllSchemesBitIdenticalAcrossKernelTiers is the dispatch-registry
// acceptance matrix: every compression design runs a full multi-step
// 2-worker push/pull training loop under each available kernel tier
// (scalar / vec / asm), and the final global model state must be
// bit-identical across tiers. Equivalent to running the suite under each
// THREELC_KERNEL value; SetTier swaps the same dispatch set the env pin
// does.
func TestAllSchemesBitIdenticalAcrossKernelTiers(t *testing.T) {
	schemes := []struct {
		name string
		s    compress.Scheme
		o    compress.Options
	}{
		{"none", compress.SchemeNone, compress.Options{}},
		{"int8", compress.SchemeInt8, compress.Options{}},
		{"3lc", compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}},
		{"3lc-nozre", compress.SchemeThreeLC, compress.Options{Sparsity: 1.0}},
		{"stoch3qe", compress.SchemeStoch3QE, compress.Options{Seed: 7}},
		{"onebit", compress.SchemeMQE1Bit, compress.Options{}},
		{"topk", compress.SchemeTopK, compress.Options{Fraction: 0.25, Seed: 9}},
		{"localsteps", compress.SchemeLocalSteps, compress.Options{Interval: 2}},
		{"roundrobin", compress.SchemeRoundRobin, compress.Options{Parts: 2}},
	}
	tiers := kernel.AvailableTiers()
	orig := kernel.ActiveTier()
	defer kernel.SetTier(orig)

	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			var ref [][]float32
			for _, tier := range tiers {
				kernel.SetTier(tier)
				got := runSchemeSteps(t, sc.s, sc.o)
				if ref == nil {
					ref = got
					continue
				}
				assertSameState(t, got, ref, tiers[0].String()+" tier")
			}
		})
	}
}

// runSchemeSteps drives 4 full training steps on a 2-worker cluster with
// the given design and returns the final global parameter data.
func runSchemeSteps(t *testing.T, s compress.Scheme, o compress.Options) [][]float32 {
	t.Helper()
	cfg := testConfig(s, o, 2)
	cfg.Parallelism = 2
	global := testModel(1)
	server := NewJob(global, cfg)
	workers := make([]*Worker, 2)
	for id := range workers {
		m := testModel(1)
		m.CopyParamsFrom(global)
		workers[id] = NewWorker(id, m, cfg)
	}
	rng := tensor.NewRNG(123)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}
	for step := 0; step < 4; step++ {
		server.BeginStep()
		for _, w := range workers {
			w.Model.TrainStep(x, labels)
			wires, _ := w.CompressGrads()
			if _, err := server.AddPush(w.ID, wires); err != nil {
				t.Fatal(err)
			}
		}
		pull, _, err := server.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			if _, err := w.ApplyPull(pull); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out [][]float32
	for _, p := range global.Params() {
		out = append(out, append([]float32(nil), p.W.Data()...))
	}
	return out
}
