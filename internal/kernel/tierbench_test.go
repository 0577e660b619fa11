package kernel

import (
	"testing"

	"threelc/internal/encode"
	"threelc/internal/tensor"
)

// Tier-sweep benchmarks for the dispatched kernel registry: the same
// workload on each available tier, so benchcheck can gate the assembly
// tier against the scalar reference by name
// (EncodeTernaryKernel/asm/dense vs EncodeTernaryKernel/scalar/dense,
// etc.). Serial kernels: 0 allocs/op under -benchmem.

// encodeBenchInputs accumulates the two inputs of decodeAddBenchInputs at
// n elements into fresh error buffers and returns each with its
// quantization scale: dense at s = 1.00 (half the digits non-zero, no
// 40-element block all-zero — the quantize, residual write and pack decide
// the time), sparse at the s = 1.75 the end-to-end benchmark runs (0.998
// zeros, ~92 % of the blocks all-zero — the encode is a read-only scan
// plus the zero-run compaction).
func encodeBenchInputs(n int) (dense, sparse []float32, mDense, mSparse float64) {
	d, s := decodeAddBenchInputs(n)
	dense, sparse = make([]float32, n), make([]float32, n)
	mDense = float64(AccumulateMaxAbs(dense, d.Data()))
	mSparse = float64(AccumulateMaxAbs(sparse, s.Data())) * 1.75
	return dense, sparse, mDense, mSparse
}

// BenchmarkEncodeTernaryKernel measures the fused ternary
// quantize→pack→zero-run encode pass per tier, consulting the block index
// of its input as a context's pass 2 does, on both inputs of
// encodeBenchInputs and on clusteredInput at 1M elements, reporting each
// wire's zero-element fraction and its longrun-gain — the bytes §3.3's
// capped zero-run spelling would have taken over the bytes emitted,
// floored in CI on the sparse row so that a change that re-caps runs
// fails — plus one sparse-cold row on the dispatched tier: 1.85M elements
// (the end-to-end benchmark's model) rotating through 8 buffers, 59 MB in
// all, so the sparse number on record is not only the cache-resident one.
// The sparse input scatters its non-zero digits over ~92 % of the blocks,
// the clustered one (accumulated once, not yet in the steady state of
// BenchmarkFusedCompress) over 0.6 %, and CI gates the gap.
// The encode consumes the accumulated buffer (it leaves the residual
// behind), so each iteration first restores, outside the timer, the
// elements the previous encode of that buffer changed — only those, so the
// restore does not pull a cold buffer back into cache (and the index,
// recorded once from the snapshot, stays the buffer's).
func BenchmarkEncodeTernaryKernel(b *testing.B) {
	const n = 1 << 20
	const nCold = 1850000
	orig := ActiveTier()
	defer SetTier(orig)
	dense, sparse, mDense, mSparse := encodeBenchInputs(n)
	_, cold, _, mCold := encodeBenchInputs(nCold)
	clustered := clusteredInput(n).Data()
	mClustered := float64(maxAbsRange(clustered)) * 1.75
	var wire []byte
	run := func(b *testing.B, snapshot []float32, m float64, bufs int) {
		var x Blocks
		x.AccumulateMaxAbs(make([]float32, len(snapshot)), snapshot)
		ring := make([][]float32, bufs)
		for i := range ring {
			ring[i] = append([]float32(nil), snapshot...)
		}
		wire = x.EncodeTernary(ring[0], m, true, wire[:0]) // converge wire capacity
		var changed []int
		for i, v := range ring[0] {
			if v != snapshot[i] { // residual v − M·q with q != 0
				changed = append(changed, i)
			}
		}
		b.SetBytes(4 * int64(len(snapshot)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := ring[i%bufs]
			b.StopTimer()
			for _, j := range changed {
				buf[j] = snapshot[j]
			}
			b.StartTimer()
			wire = x.EncodeTernary(buf, m, true, wire[:0])
		}
		b.ReportMetric(1-float64(len(changed))/float64(len(snapshot)), "zero-frac")
		b.ReportMetric(float64(encode.ZeroRunPaperLen(wire))/float64(len(wire)), "longrun-gain")
	}
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/dense", func(b *testing.B) { SetTier(tier); run(b, dense, mDense, 1) })
		b.Run(tier.String()+"/sparse", func(b *testing.B) { SetTier(tier); run(b, sparse, mSparse, 1) })
		b.Run(tier.String()+"/clustered", func(b *testing.B) { SetTier(tier); run(b, clustered, mClustered, 1) })
	}
	b.Run(orig.String()+"/sparse-cold", func(b *testing.B) { SetTier(orig); run(b, cold, mCold, coldBufs) })
}

// decodeAddBenchInputs builds the two decode-add workloads the tier
// benchmarks run at n elements, as gradients to be accumulated and
// quantized at s = 1.00:
//
//	dense   uniform on [−1, 1): half the elements quantize to ±1 and 97 %
//	        of the quartic groups are literal, in long stretches — the
//	        input on which the literal cores (the part of decode-add that
//	        differs by tier) decide the time, so the tier speedup rule is
//	        gated on it. A Gaussian does not qualify at any sparsity
//	        multiplier: even at s = 1.00 it quantizes to 98.7 % zeros,
//	        and with zero runs skipped its time is the marker walk, which
//	        every tier shares.
//	sparse  0.2 % of the elements non-zero, the rest exact zeros: the 0.998
//	        zero fraction the end-to-end benchmark measures on its lan-3lc
//	        pushes and pulls, where decode-add is a walk over run markers
//	        and isolated literal groups.
func decodeAddBenchInputs(n int) (dense, sparse *tensor.Tensor) {
	dense, sparse = tensor.New(n), tensor.New(n)
	rng := tensor.NewRNG(4)
	for i := range dense.Data() {
		dense.Data()[i] = float32(rng.Uint64()%(1<<24))/(1<<23) - 1
		if r := rng.Uint64() % 1000; r < 2 {
			sparse.Data()[i] = float32(r)*2 - 1
		}
	}
	return dense, sparse
}

// clusteredInput builds a gradient whose non-zero values cluster the way a
// large layer's do: per 1M elements, 8 rows of 1 024 Gaussian values at
// seeded offsets, exact zeros elsewhere. That is 0.8 % of the elements and,
// under error feedback, 2 % of the 1 280-element blocks of the block index
// holding a non-zero digit: the share lan-3lc's pushes have (1.8 %; its
// pulls 8.4 %).
func clusteredInput(n int) *tensor.Tensor {
	const row = 1024
	t := tensor.New(n)
	rng := tensor.NewRNG(8)
	for r := 0; r < max(1, n>>17); r++ {
		off := rng.Intn(n - row + 1)
		for i := off; i < off+row; i++ {
			t.Data()[i] = float32(rng.Norm() * 0.01)
		}
	}
	return t
}

// clusteredWire returns the wire of clusteredInput(n) at s = 1.75 after
// ten steps of error feedback — the steady state BenchmarkFusedCompress's
// clustered row runs in, where 2 % of the 1 280-element blocks hold a
// non-zero digit, the share lan-3lc's pushes have — with its scale.
func clusteredWire(n int) (wire []byte, m float32) {
	in := clusteredInput(n).Data()
	buf := make([]float32, n)
	for i := 0; i < 10; i++ {
		mm := float64(AccumulateMaxAbs(buf, in)) * 1.75
		wire, m = EncodeTernary(buf, mm, true, wire[:0]), float32(mm)
	}
	return wire, m
}

// BenchmarkDecodeAddKernel measures the LUT decode-accumulate pass at 1M
// elements per tier (the server-side aggregation inner loop) on both
// inputs of decodeAddBenchInputs, reporting each wire's zero-element
// fraction, and on clusteredWire as a step's first push into a recorded
// gradient sum takes it: Blocks.Reset, then the decode-add, which
// clears the blocks its literal groups land in and touches nothing else
// (live-frac: the share of blocks it made live).
func BenchmarkDecodeAddKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	dense, sparse := decodeAddBenchInputs(n)
	acc := make([]float32, n)
	for _, in := range []struct {
		name string
		t    *tensor.Tensor
	}{{"dense", dense}, {"sparse", sparse}} {
		buf := make([]float32, n)
		m := float64(AccumulateMaxAbs(buf, in.t.Data()))
		wire := EncodeTernary(buf, m, true, nil)
		clear(acc)
		if err := DecodeTernaryAdd(wire, true, float32(m), acc); err != nil {
			b.Fatal(err)
		}
		zeros := 0
		for _, v := range acc {
			if v == 0 {
				zeros++
			}
		}
		for _, tier := range AvailableTiers() {
			b.Run(tier.String()+"/"+in.name, func(b *testing.B) {
				SetTier(tier)
				if err := DecodeTernaryAdd(wire, true, float32(m), acc); err != nil {
					b.Fatal(err) // also warms the ScaledLUT free list
				}
				b.SetBytes(4 * int64(n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := DecodeTernaryAdd(wire, true, float32(m), acc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(zeros)/n, "zero-frac")
			})
		}
	}
	wire, m := clusteredWire(n)
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/clustered", func(b *testing.B) {
			SetTier(tier)
			var live Blocks
			if err := live.DecodeTernaryAdd(wire, true, m, acc); err != nil {
				b.Fatal(err) // sizes the record, warms the ScaledLUT free list
			}
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live.Reset()
				if err := live.DecodeTernaryAdd(wire, true, m, acc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(liveFrac(&live, n), "live-frac")
		})
	}
}

// liveFrac is the share of the blocks of an n-element sum live recorded
// live.
func liveFrac(live *Blocks, n int) float64 {
	k := 0
	for _, s := range live.stamp {
		if s == live.epoch {
			k++
		}
	}
	return float64(k) / float64(blocks(n))
}

// BenchmarkAccumulateMaxAbsKernel measures the fused error-accumulate +
// |max| reduction at 1M elements per tier (compress pass 1).
func BenchmarkAccumulateMaxAbsKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	in := tensor.New(n)
	fillRand(in, 3, 0.01)
	buf := make([]float32, n)
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/1M", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AccumulateMaxAbs(buf, in.Data())
			}
		})
	}
}

// BenchmarkMaxAbsKernel measures the read-only |max| reduction (pass 1 of
// a worker's 3LC tensor, which holds e + g already, and of the stochastic
// and int8 codecs) at 1M elements per tier, cache-cold like the tensors
// it runs on, recording block maxima as a 3LC context does.
func BenchmarkMaxAbsKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	in := tensor.New(n)
	fillRand(in, 3, 0.01)
	ins := coldRing(in.Data())
	var x Blocks
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/1M", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.MaxAbs(ins[i%coldBufs])
			}
		})
	}
}

// coldBufs is how many copies of its operands each cache-cold row rotates
// through: at 1M elements that is 32 MB a stream, so an operand has left
// the core's caches long before its turn comes round again — the state the
// end-to-end benchmark's 7.4 MB tensor sets are always in.
const coldBufs = 8

// coldRing returns coldBufs written copies of src.
func coldRing[T any](src []T) [][]T {
	ring := make([][]T, coldBufs)
	for i := range ring {
		ring[i] = append([]T(nil), src...)
	}
	return ring
}

// BenchmarkFusedSGDStepKernel measures the parameter server's fused
// optimizer sweep (Blocks.SGDStep) at 1M elements per tier into its three
// sinks: 1M is the Acc sink (average, momentum update, delta folded into
// acc with its |max| and block maxima) on cache-resident streams under a
// record whose every block is live, delta the Delta sink the
// non-accumulating codecs' pulls take and raw the Raw sink SchemeNone
// pulls take (the delta's bits one byte into a wire), both without a
// record and cache-cold (coldRing) like the tensors they run on, and
// clustered the Acc sink over the gradient sum a step's pushes of
// clusteredWire leave, which reads the sum's live blocks and the shared
// zero block for the rest.
func BenchmarkFusedSGDStepKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	w, gs := tensor.New(n), tensor.New(n)
	fillRand(w, 5, 0.05)
	fillRand(gs, 6, 0.01)
	v := make([]float32, n)
	acc := make([]float32, n)
	var all Blocks
	all.Reset()
	all.Mark(n)
	ws, vs, gss, deltas := coldRing(w.Data()), coldRing(v), coldRing(gs.Data()), coldRing(acc)
	raws := coldRing(make([]byte, 1+4*n))
	var live Blocks
	sum := make([]float32, n)
	wire, m := clusteredWire(n)
	for k := 0; k < 2; k++ {
		if err := live.DecodeTernaryAdd(wire, true, m, sum); err != nil {
			b.Fatal(err)
		}
	}
	var none *Blocks
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/1M", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all.SGDStep(w.Data(), v, gs.Data(), Sink{Acc: acc}, 0.5, 1e-4, 0.9, 0.0004)
			}
		})
		b.Run(tier.String()+"/delta", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % coldBufs
				none.SGDStep(ws[k], vs[k], gss[k], Sink{Delta: deltas[k]}, 0.5, 1e-4, 0.9, 0.0004)
			}
		})
		b.Run(tier.String()+"/raw", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % coldBufs
				none.SGDStep(ws[k], vs[k], gss[k], Sink{Raw: raws[k][1:]}, 0.5, 1e-4, 0.9, 0.0004)
			}
		})
		b.Run(tier.String()+"/clustered", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live.SGDStep(w.Data(), v, sum, Sink{Acc: acc}, 0.5, 1e-4, 0.9, 0.0004)
			}
			b.ReportMetric(liveFrac(&live, n), "live-frac")
		})
	}
}

// BenchmarkRawAddKernel measures the raw float32 decode-accumulate at 1M
// elements per tier, cache-cold, with the payload one byte into its buffer
// as on the wire. The accmax row is AccumulateMaxAbs on the dispatched tier
// over the same rotation — the same traffic plus a max chain, the bound
// the add is held to.
func BenchmarkRawAddKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	in := tensor.New(n)
	fillRand(in, 3, 0.01)
	dsts, ins := coldRing(make([]float32, n)), coldRing(in.Data())
	wires := coldRing(AppendRaw([]byte{0}, in.Data()))
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/1M", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RawAdd(dsts[i%coldBufs], wires[i%coldBufs][1:])
			}
		})
	}
	b.Run("accmax/1M", func(b *testing.B) {
		SetTier(orig)
		b.SetBytes(4 * int64(n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AccumulateMaxAbs(dsts[i%coldBufs], ins[i%coldBufs])
		}
	})
}

// BenchmarkRawPutKernel measures the raw float32 encode at 1M elements per
// tier, cache-cold, behind a one-byte scheme prefix as in a wire. The copy
// row is the built-in copy of the same bytes over the same rotation, from a
// source that was written (an untouched one is the kernel's shared zero
// page and reads twice as fast): the roofline a put is held to.
func BenchmarkRawPutKernel(b *testing.B) {
	const n = 1 << 20
	orig := ActiveTier()
	defer SetTier(orig)
	in := tensor.New(n)
	fillRand(in, 3, 0.01)
	ins := coldRing(in.Data())
	wires := coldRing(AppendRaw([]byte{0}, in.Data()))
	for _, tier := range AvailableTiers() {
		b.Run(tier.String()+"/1M", func(b *testing.B) {
			SetTier(tier)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wires[i%coldBufs] = AppendRaw(wires[i%coldBufs][:1], ins[i%coldBufs])
			}
		})
	}
	b.Run("copy/1M", func(b *testing.B) {
		b.SetBytes(4 * int64(n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(wires[i%coldBufs][1:], wires[(i+coldBufs/2)%coldBufs][1:])
		}
	})
}
