package compress_test

import (
	"fmt"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
	"threelc/internal/train"
)

// trainedWires is what crosses the link in production, captured from the
// end-to-end benchmark's `wan-3lc` workload — a 768-1024-1024-10 MLP, two
// workers, batch 4, 3LC s = 1.75 with error feedback since step 0, the four
// batch-norm vectors and the head bias exempt — generated here, from seed 1,
// over 24 steps: for every exempt tensor, its gradient at every step and the
// pull its replica applied at every step but the last, W_next − W.
type trainedWires struct {
	grad [][]*tensor.Tensor // [step][tensor], exempt tensors only
	pull [][]*tensor.Tensor // [step][tensor], exempt tensors only
}

func trainedRun(tb testing.TB) trainedWires {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test, dcfg.Seed = 1000, 300, 1
	design := train.Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}
	const steps, workers = 24, 2
	sgd := opt.TunedSGDConfig(workers, steps)
	exempt := ps.Config{Scheme: design.Scheme, MinCompressElems: train.MinCompressElems}
	var prev []*tensor.Tensor // the exempt weights a step ago
	var tw trainedWires
	_, err := train.Run(train.Config{
		Design: design, Workers: workers, BatchPerWorker: 4, Steps: steps, Data: dcfg,
		BuildModel: func() *nn.Model {
			return nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{1024, 1024}, dcfg.Classes, 1)
		},
		FlatInput: true, Optimizer: &sgd, Seed: 1,
		OnGradients: func(_ int, params []*nn.Param) {
			grad, now, pull := make([]*tensor.Tensor, len(params)), make([]*tensor.Tensor, len(params)), make([]*tensor.Tensor, len(params))
			for i, p := range params {
				if exempt.Compresses(p) {
					continue
				}
				grad[i], now[i] = p.G.Clone(), p.W.Clone()
				if prev != nil {
					pull[i] = p.W.Clone()
					pull[i].Sub(prev[i])
				}
			}
			tw.grad = append(tw.grad, grad)
			if prev != nil {
				tw.pull = append(tw.pull, pull)
			}
			prev = now
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tw
}

// BenchmarkPacked32 is the packed float32 wire on the tensors it exists
// for: the four 1 024-element batch-norm vectors of trainedRun, and their
// first 48 elements (the tiny-stream workload's tensor size, one tail
// block), one vector an operation, step after step of the run. pack
// compresses the owner's gradients through a compress.NewExempt context,
// unpack-add accumulates the pulls' wires with compress.DecompressAddInto;
// both report ns/elem and ratio, the raw wires' bytes over the packed
// wires' across the run — of the pushes under pack, of the pulls under
// unpack-add, where CI floors it: a pull is a multiple of ulp(W), so its
// low mantissa planes are mostly zero (the scales, near 1, pack 1.65x; the
// offsets, near 0 and so finer-grained, 1.15x).
func BenchmarkPacked32(b *testing.B) {
	tw := trainedRun(b)
	for _, n := range []int{1024, 48} {
		ctx := compress.NewExempt(compress.SchemeThreeLC, []int{n})
		// The first n elements of every 1 024-element exempt tensor of every
		// step, their wires, and raw bytes over wire bytes.
		head := func(steps [][]*tensor.Tensor) (in []*tensor.Tensor, wires [][]byte, ratio float64) {
			packed := 0
			for _, step := range steps {
				for _, v := range step {
					if v == nil || v.Len() != 1024 {
						continue
					}
					in = append(in, tensor.FromSlice(v.Data()[:n], n))
					wires = append(wires, ctx.CompressInto(in[len(in)-1], nil))
					packed += len(wires[len(wires)-1])
				}
			}
			if len(in) == 0 {
				b.Fatal("the trained model has no 1024-element exempt tensor")
			}
			return in, wires, float64(len(in)*(1+4*n)) / float64(packed)
		}
		report := func(b *testing.B, ratio float64) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
			b.ReportMetric(ratio, "ratio")
		}
		b.Run(fmt.Sprintf("pack/%d", n), func(b *testing.B) {
			grads, _, ratio := head(tw.grad)
			buf := ctx.CompressInto(grads[0], nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ctx.CompressInto(grads[i%len(grads)], buf[:0])
			}
			report(b, ratio)
		})
		b.Run(fmt.Sprintf("unpack-add/%d", n), func(b *testing.B) {
			_, wires, ratio := head(tw.pull)
			acc := tensor.New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := compress.DecompressAddInto(wires[i%len(wires)], acc, 1); err != nil {
					b.Fatal(err)
				}
			}
			report(b, ratio)
		})
	}
}
