package entropy_test

import (
	"fmt"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/entropy"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
	"threelc/internal/train"
	"threelc/internal/transport"
)

// quarticWire builds the workload the paper benchmarks entropy coders on
// (§5.3): the zero-run-encoded quartic stream of a 3LC-compressed
// gradient tensor. Its byte distribution is skewed (runs trimmed, but the
// quartic alphabet stays non-uniform), which is where a second-stage
// coder earns its keep.
func quarticWire(n int) []byte {
	rng := tensor.NewRNG(9)
	in := tensor.New(n)
	tensor.FillNormal(in, 0.01, rng)
	ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
	return ctx.CompressInto(in, nil)
}

// trainedWires is what crosses the link in production, captured from the
// end-to-end benchmark's `wan-3lc` workload — a 768-1024-1024-10 MLP, two
// workers, batch 4, 3LC s = 1.75 with error feedback since step 0, the four
// batch-norm vectors and the head bias exempt — generated here, from seed 1,
// over 24 steps: the push wire set worker 0 (the owner) sends at the last
// step, and, for every exempt tensor, its gradient at every step and the
// pull its replica applied at every step but the last, W_next − W.
type trainedWires struct {
	push [][]byte           // worker 0's push wire set at the last step
	grad [][]*tensor.Tensor // [step][tensor], exempt tensors only
	pull [][]*tensor.Tensor // [step][tensor], exempt tensors only
}

func trainedRun(tb testing.TB) trainedWires {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test, dcfg.Seed = 1000, 300, 1
	design := train.Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true, CodecParallelism: 1}}
	const steps, workers = 24, 2
	sgd := opt.TunedSGDConfig(workers, steps)
	var ctx []compress.Compressor
	var prev []*tensor.Tensor // the exempt weights a step ago
	var tw trainedWires
	_, err := train.Run(train.Config{
		Design: design, Workers: workers, BatchPerWorker: 4, Steps: steps, Data: dcfg,
		BuildModel: func() *nn.Model {
			return nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{1024, 1024}, dcfg.Classes, 1)
		},
		FlatInput: true, Parallelism: 1, Optimizer: &sgd, Seed: 1,
		// Worker 0's gradients through contexts of the run's own design are
		// worker 0's push wires, residuals included.
		OnGradients: func(_ int, params []*nn.Param) {
			if ctx == nil {
				ctx, tw.push = make([]compress.Compressor, len(params)), make([][]byte, len(params))
				exempt := ps.Config{Scheme: design.Scheme, MinCompressElems: 256}
				for i, p := range params {
					ctx[i] = compress.NewExempt(design.Scheme, p.W.Shape())
					if exempt.Compresses(p) {
						ctx[i] = compress.New(design.Scheme, p.W.Shape(), design.Opts)
					}
				}
			}
			grad, now, pull := make([]*tensor.Tensor, len(params)), make([]*tensor.Tensor, len(params)), make([]*tensor.Tensor, len(params))
			for i, p := range params {
				tw.push[i] = ctx[i].CompressInto(p.G, tw.push[i][:0])
				if ctx[i].Scheme() != compress.SchemePacked32 {
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

// trainedWireSet is a wire the stage would meet in production: the push
// wire set (transport.AppendWireSet, what a frame-level stage would code)
// of trainedRun.
func trainedWireSet(tb testing.TB) []byte {
	return transport.AppendWireSet(nil, trainedRun(tb).push)
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

// BenchmarkEntropyStage measures the streaming second stage over a 1M-element
// 3LC quartic wire: steady-state encode/decode with recycled buffers must
// be allocation-free, and the encoders report the achieved compression
// ratio (raw/coded) as a custom metric — CI floors it at 1.1x for Huffman.
// The trained/ rows run the same coders over trainedWireSet: what is left
// for a general-purpose stage on the wire the paper's row moves.
func BenchmarkEntropyStage(b *testing.B) {
	benchEntropyStage(b, "", quarticWire(1<<20))
	benchEntropyStage(b, "trained/", trainedWireSet(b))
}

func benchEntropyStage(b *testing.B, prefix string, raw []byte) {
	bench := func(name string, encode func(dst, src []byte) []byte,
		decode func(dst, src []byte) ([]byte, error)) {
		name = prefix + name
		coded := encode(nil, raw)
		b.Run(name+"-encode", func(b *testing.B) {
			buf := encode(nil, raw)
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encode(buf[:0], raw)
			}
			b.ReportMetric(float64(len(raw))/float64(len(buf)), "ratio")
		})
		b.Run(name+"-decode", func(b *testing.B) {
			buf, err := decode(nil, coded)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = decode(buf[:0], coded)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench("huffman", entropy.HuffmanEncodeInto, entropy.HuffmanDecodeInto)
	bench("lz", entropy.LZEncodeInto, entropy.LZDecodeInto)
}
