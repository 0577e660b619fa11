package ps

import (
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
)

// designs is the nine-design table the ps-level bit-identity suites sweep.
var designs = []struct {
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
}

// TestAllSchemesBitIdenticalAcrossKernelTiers is the dispatch-registry
// acceptance matrix: every compression design runs a full multi-step
// 2-worker push/pull training loop under each available kernel tier
// (scalar / asm), and the final global model state must be bit-identical
// across tiers. Equivalent to running the suite under each
// THREELC_KERNEL value; SetTier swaps the same dispatch set the env pin
// does.
func TestAllSchemesBitIdenticalAcrossKernelTiers(t *testing.T) {
	tiers := kernel.AvailableTiers()
	orig := kernel.ActiveTier()
	defer kernel.SetTier(orig)

	for _, sc := range designs {
		t.Run(sc.name, func(t *testing.T) {
			cfg := testConfig(sc.s, sc.o, 2)
			var ref [][]float32
			for _, tier := range tiers {
				kernel.SetTier(tier)
				got, _ := runPair(t, cfg, fusedJob, (*Worker).ApplyPull)
				if ref == nil {
					ref = got
					continue
				}
				assertSameState(t, got, ref, tiers[0].String()+" tier")
			}
		})
	}
}
