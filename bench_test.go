// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus micro-benchmarks of each pipeline stage and ablation benches
// for the paper's design choices.
//
// Table/figure benches run a miniature experiment suite (3 workers, small
// MLP) per iteration and report the headline quantities as custom metrics;
// the full-scale reproduction is `go run ./cmd/3lc-bench -exp all`.
package threelc_test

import (
	"io"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/encode"
	"threelc/internal/entropy"
	"threelc/internal/experiments"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

// --- Micro-benchmarks: pipeline stages ------------------------------------

const microN = 1 << 20 // 1M elements, ResNet-110 scale

func gradientTensor(seed uint64, n int) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	t := tensor.New(n)
	tensor.FillNormal(t, 0.01, rng)
	return t
}

func BenchmarkQuantize3(b *testing.B) {
	in := gradientTensor(1, microN)
	b.SetBytes(4 * microN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Quantize3(in, 1.0)
	}
}

func BenchmarkDequantize3(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(1, microN), 1.0)
	out := tensor.New(microN)
	b.SetBytes(4 * microN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.DequantizeInto(tv, out)
	}
}

func BenchmarkQuarticEncode(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(2, microN), 1.0)
	dst := make([]byte, encode.QuarticEncodedLen(microN))
	b.SetBytes(int64(microN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode.QuarticEncodeInto(tv.Q, dst)
	}
}

func BenchmarkQuarticDecode(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(2, microN), 1.0)
	enc := encode.QuarticEncode(tv.Q)
	dst := make([]int8, microN)
	b.SetBytes(int64(microN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode.QuarticDecodeInto(enc, dst)
	}
}

func BenchmarkZeroRunEncode(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(3, microN), 1.75)
	qe := encode.QuarticEncode(tv.Q)
	b.SetBytes(int64(len(qe)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode.ZeroRunEncode(qe)
	}
}

func BenchmarkZeroRunDecode(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(3, microN), 1.75)
	qe := encode.QuarticEncode(tv.Q)
	zre := encode.ZeroRunEncode(qe)
	dst := make([]byte, len(qe))
	b.SetBytes(int64(len(qe)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode.ZeroRunDecodeInto(zre, dst)
	}
}

// BenchmarkCompressScheme measures end-to-end Compress for every design at
// 1M elements, reporting bits per state change.
func BenchmarkCompressScheme(b *testing.B) {
	cases := []struct {
		name string
		s    compress.Scheme
		o    compress.Options
	}{
		{"float32", compress.SchemeNone, compress.Options{}},
		{"int8", compress.SchemeInt8, compress.Options{}},
		{"stoch3", compress.SchemeStoch3QE, compress.Options{Seed: 1}},
		{"mqe1bit", compress.SchemeMQE1Bit, compress.Options{}},
		{"sparse25", compress.SchemeTopK, compress.Options{Fraction: 0.25, Seed: 1}},
		{"sparse5", compress.SchemeTopK, compress.Options{Fraction: 0.05, Seed: 1}},
		{"3lc-s1.00", compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}},
		{"3lc-s1.75", compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			in := gradientTensor(4, microN)
			ctx := compress.New(c.s, []int{microN}, c.o)
			b.SetBytes(4 * microN)
			wire := ctx.CompressInto(in, nil) // warm up scratch capacities
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire = ctx.CompressInto(in, wire[:0])
			}
			b.ReportMetric(float64(len(wire))*8/float64(microN), "bits/elem")
		})
	}
}

func BenchmarkDecompress3LC(b *testing.B) {
	ctx := compress.New(compress.SchemeThreeLC, []int{microN}, compress.Options{Sparsity: 1.75, ZeroRun: true})
	wire := ctx.CompressInto(gradientTensor(5, microN), nil)
	out := tensor.New(microN)
	b.SetBytes(4 * microN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compress.DecompressInto(wire, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZeroTensor280x verifies the paper's §3.3 hypothetical: an
// all-zero float tensor compresses 280x end to end — in the paper's own
// zero-run spelling, which the wire keeps derivable; the long-run token
// spells the same tensor in a handful of bytes.
func BenchmarkZeroTensor280x(b *testing.B) {
	in := tensor.New(microN)
	ctx := compress.New(compress.SchemeThreeLC, []int{microN}, compress.Options{Sparsity: 1.0, ZeroRun: true})
	var wire []byte
	b.SetBytes(4 * microN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = ctx.CompressInto(in, nil)
	}
	// Subtract the 6-byte header the paper's arithmetic ignores.
	b.ReportMetric(float64(4*microN)/float64(compress.PaperWireLen(wire)-6), "ratio")
}

// --- Table/figure reproductions --------------------------------------------

// benchSuite builds the miniature experiment suite used by the table and
// figure benchmarks.
func benchSuite() *experiments.Suite {
	opt := experiments.DefaultOptions()
	opt.Workers = 3
	opt.BatchPerWorker = 8
	opt.StandardSteps = 16
	opt.EvalEvery = 8
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 200, 60
	opt.Data = dcfg
	opt.Hidden = []int{12}
	opt.Progress = io.Discard
	return opt2suite(opt)
}

func opt2suite(opt experiments.Options) *experiments.Suite {
	return experiments.NewSuite(opt)
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: 3LC (s=1.00) speedup at 10 Mbps.
		for _, r := range rows {
			if r.Design == "3LC (s=1.00)" {
				b.ReportMetric(r.Speedup["10 Mbps"], "3lc-speedup@10M")
			}
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := experiments.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].CompressionRatio, "ratio-s1.00")
		b.ReportMetric(rows[1].BitsPerChange, "bits-s1.00")
	}
}

func benchFigure(b *testing.B, f func(*experiments.Suite) ([]experiments.Curve, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		curves, err := f(s)
		if err != nil {
			b.Fatal(err)
		}
		last := curves[len(curves)-1]
		b.ReportMetric(last.Points[len(last.Points)-1].Accuracy, "final-acc-pct")
	}
}

func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		series, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].Loss[len(series[0].Loss)-1], "baseline-final-loss")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		series, err := experiments.Figure9(s)
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, v := range series[0].PushBits {
			mean += v
		}
		b.ReportMetric(mean/float64(len(series[0].PushBits)), "push-bits-s1.00")
	}
}

// --- Ablation benches (the paper's design choices) -------------------------

// BenchmarkAblationQuarticVs2Bit compares quartic encoding against the
// 2-bit packing TernGrad uses; the paper claims a 20% size saving (§3.2).
func BenchmarkAblationQuarticVs2Bit(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(6, microN), 1.0)
	pack2bit := func(q []int8) []byte {
		out := make([]byte, (len(q)+3)/4)
		for i, v := range q {
			out[i>>2] |= byte(v+1) << (uint(i&3) * 2)
		}
		return out
	}
	b.Run("quartic", func(b *testing.B) {
		b.SetBytes(int64(microN))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(encode.QuarticEncode(tv.Q))
		}
		b.ReportMetric(float64(n)*8/float64(microN), "bits/elem")
	})
	b.Run("2bit", func(b *testing.B) {
		b.SetBytes(int64(microN))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(pack2bit(tv.Q))
		}
		b.ReportMetric(float64(n)*8/float64(microN), "bits/elem")
	})
}

// BenchmarkAblationZREvsEntropyCoding compares zero-run encoding against
// the general-purpose coders the paper cites (§3.3: "Compared to
// general-purpose compression algorithms or entropy coding schemes,
// zero-run encoding is simple to implement and fast to run"): a canonical
// Huffman coder and a Snappy-like LZ. Each sub-benchmark reports its
// compression ratio over the same quartic-encoded gradient data, so
// throughput (ns/op, MB/s) and ratio can be compared side by side.
func BenchmarkAblationZREvsEntropyCoding(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(20, microN), 1.75)
	qe := encode.QuarticEncode(tv.Q)
	b.Run("zero-run", func(b *testing.B) {
		b.SetBytes(int64(len(qe)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(encode.ZeroRunEncode(qe))
		}
		b.ReportMetric(float64(len(qe))/float64(n), "ratio")
	})
	b.Run("huffman", func(b *testing.B) {
		b.SetBytes(int64(len(qe)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(entropy.HuffmanEncode(qe))
		}
		b.ReportMetric(float64(len(qe))/float64(n), "ratio")
	})
	b.Run("lz", func(b *testing.B) {
		b.SetBytes(int64(len(qe)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(entropy.LZEncode(qe))
		}
		b.ReportMetric(float64(len(qe))/float64(n), "ratio")
	})
}

// BenchmarkAblationZRCvsGenericRLE compares zero-run encoding with a
// generic byte-level RLE (which spends bytes on run lengths for every
// value, not just 121).
func BenchmarkAblationZRCvsGenericRLE(b *testing.B) {
	tv := quant.Quantize3(gradientTensor(7, microN), 1.75)
	qe := encode.QuarticEncode(tv.Q)
	genericRLE := func(in []byte) []byte {
		out := make([]byte, 0, len(in))
		for i := 0; i < len(in); {
			j := i + 1
			for j < len(in) && in[j] == in[i] && j-i < 255 {
				j++
			}
			out = append(out, in[i], byte(j-i))
			i = j
		}
		return out
	}
	b.Run("zero-run", func(b *testing.B) {
		b.SetBytes(int64(len(qe)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(encode.ZeroRunEncode(qe))
		}
		b.ReportMetric(float64(len(qe))/float64(n), "ratio")
	})
	b.Run("generic-rle", func(b *testing.B) {
		b.SetBytes(int64(len(qe)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(genericRLE(qe))
		}
		b.ReportMetric(float64(len(qe))/float64(n), "ratio")
	})
}

// BenchmarkAblationErrorAccumVsStochastic compares the accuracy impact of
// 3LC's deterministic quantization + error accumulation against stochastic
// quantization at equal bit budget (the paper's §3.1 design rationale).
// It reports mean squared reconstruction error of the accumulated stream —
// the quantity error feedback drives to zero and stochastic noise keeps.
func BenchmarkAblationErrorAccumVsStochastic(b *testing.B) {
	const n = 1 << 16
	const rounds = 50
	run := func(b *testing.B, scheme compress.Scheme, o compress.Options) {
		for i := 0; i < b.N; i++ {
			ctx := compress.New(scheme, []int{n}, o)
			rng := tensor.NewRNG(uint64(i) + 99)
			inSum := tensor.New(n)
			outSum := tensor.New(n)
			in := tensor.New(n)
			for r := 0; r < rounds; r++ {
				tensor.FillNormal(in, 0.01, rng)
				inSum.Add(in)
				out, err := compress.Decompress(ctx.CompressInto(in, nil), []int{n})
				if err != nil {
					b.Fatal(err)
				}
				outSum.Add(out)
			}
			diff := inSum.Clone()
			diff.Sub(outSum)
			b.ReportMetric(diff.SquaredNorm()/float64(n), "cum-mse")
		}
	}
	b.Run("error-accum", func(b *testing.B) {
		run(b, compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true})
	})
	b.Run("stochastic", func(b *testing.B) {
		run(b, compress.SchemeStoch3QE, compress.Options{Seed: 5})
	})
}

// BenchmarkAblationSparsityVsThreshold compares how well the sparsity
// multiplier and hard thresholding preserve the mean magnitude of a tensor
// at matched sparsity (§3.1 "dequantization using sparsity multiplication
// enlarges (now scarcer) large values, better preserving the average
// magnitude of the input tensor").
func BenchmarkAblationSparsityVsThreshold(b *testing.B) {
	const n = 1 << 18
	in := gradientTensor(8, n)
	meanAbs := in.MeanAbs()

	b.Run("sparsity-mult", func(b *testing.B) {
		var kept float64
		for i := 0; i < b.N; i++ {
			tv := quant.Quantize3(in, 1.75)
			out := quant.Dequantize3(tv)
			kept = out.MeanAbs() / meanAbs
		}
		b.ReportMetric(kept, "magnitude-retention")
	})
	b.Run("threshold", func(b *testing.B) {
		// Match the zero count of s=1.75, then zero everything below the
		// threshold without rescaling — the sparsification approach.
		tv := quant.Quantize3(in, 1.75)
		thr := tv.M / 2
		var kept float64
		for i := 0; i < b.N; i++ {
			out := in.Clone()
			d := out.Data()
			for j, v := range d {
				if v < thr && v > -thr {
					d[j] = 0
				}
			}
			kept = out.MeanAbs() / meanAbs
		}
		b.ReportMetric(kept, "magnitude-retention")
	})
}

// BenchmarkAblationSharedPull measures the server-side saving of
// compressing model deltas once for all workers versus once per worker
// (§3's shared-pull optimization).
func BenchmarkAblationSharedPull(b *testing.B) {
	const n = 1 << 18
	const workers = 10
	in := gradientTensor(9, n)
	b.Run("shared", func(b *testing.B) {
		ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wire := ctx.CompressInto(in, nil)
			_ = wire // one compression serves all workers
		}
	})
	b.Run("per-worker", func(b *testing.B) {
		ctxs := make([]compress.Compressor, workers)
		for w := range ctxs {
			ctxs[w] = compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := 0; w < workers; w++ {
				_ = ctxs[w].CompressInto(in, nil)
			}
		}
	})
}
