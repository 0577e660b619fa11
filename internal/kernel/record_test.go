package kernel_test

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// TestBackwardRecordsPassOne holds the compress pass 1 a Linear's backward
// records row by row (nn.Param.RecordMax, Blocks.MaxAbsSpan) to
// Blocks.MaxAbs over the G it leaves, bit for bit: the block maxima and
// the tensor's max. It runs on every kernel tier; at batch 4 (the register
// path) and 1, 3, 5 and 7 (the tile path); with one output whose every
// sample's dout is 0 (its row keeps the residual) and one with a sample's
// zeroed; at widths whose rows straddle block boundaries (768, 1024, 48,
// 300 — past one tile) and align with them (10); over a residual holding
// −0 and, planted, NaN (a block of nothing else reads 0), +Inf and −Inf.
// A second backward, after G is scaled down by hand, must record the new,
// smaller maxima, not keep the old: a block's entry restarts at its first
// element.
func TestBackwardRecordsPassOne(t *testing.T) {
	defer kernel.SetTier(kernel.ActiveTier())
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tier := range kernel.AvailableTiers() {
		kernel.SetTier(tier)
		for _, n := range []int{4, 1, 3, 5, 7} {
			for _, in := range []int{768, 1024, 48, 300, 10} {
				for _, plant := range []string{"none", "nan", "inf"} {
					t.Run(fmt.Sprintf("%v/batch%d/in%d/%s", tier, n, in, plant), func(t *testing.T) {
						rng := tensor.NewRNG(uint64(1000*n + in))
						out := max(5, 3*kernel.BlockElems/in)
						l := nn.NewLinear("l", in, out, rng)
						var rec kernel.Blocks
						l.Weight.CarryGrad()
						l.Weight.RecordMax(&rec)
						g := l.Weight.G.Data()
						tensor.FillNormal(l.Weight.G, 0.5, rng)
						for i := range g {
							if i%7 == 0 {
								g[i] = negZero
							}
						}
						switch plant {
						case "nan":
							for i := range g {
								if i%97 == 5 || i/kernel.BlockElems == 1 {
									g[i] = nan
								}
							}
						case "inf":
							g[len(g)/5], g[len(g)-3] = inf, -inf
						}
						x := tensor.New(n, in)
						tensor.FillNormal(x, 1, rng)
						dout := tensor.New(n, out)
						tensor.FillNormal(dout, 1, rng)
						for r := 0; r < n; r++ {
							dout.Data()[r*out+1] = 0 // output 1: no sample has a gradient
						}
						dout.Data()[3] = 0 // output 3: one sample less
						for pass := 0; pass < 2; pass++ {
							if pass == 1 { // a hand write, then a backward over smaller values
								for i := range g {
									g[i] *= 1.0 / 64
								}
								l.Weight.ForgetMax()
								if _, ok := l.Weight.TakeMax(&rec); ok {
									t.Fatal("TakeMax reports a record after ForgetMax")
								}
							}
							l.Forward(x, true)
							l.Backward(dout)
							got, ok := l.Weight.TakeMax(&rec)
							if !ok {
								t.Fatalf("pass %d: backward left no record", pass)
							}
							var ref kernel.Blocks
							want := ref.MaxAbs(g)
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("pass %d: recorded max %x, MaxAbs %x", pass, math.Float32bits(got), math.Float32bits(want))
							}
							gm, wm := rec.Maxima(), ref.Maxima()
							if len(gm) != len(wm) {
								t.Fatalf("pass %d: %d block maxima recorded, MaxAbs records %d", pass, len(gm), len(wm))
							}
							for b := range wm {
								if math.Float32bits(gm[b]) != math.Float32bits(wm[b]) {
									t.Fatalf("pass %d: block %d: recorded %x, MaxAbs %x", pass, b, math.Float32bits(gm[b]), math.Float32bits(wm[b]))
								}
							}
							if _, ok := l.Weight.TakeMax(&rec); ok {
								t.Fatalf("pass %d: the record is not consumed by TakeMax", pass)
							}
						}
					})
				}
			}
		}
	}
}
