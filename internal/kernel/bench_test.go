package kernel

import (
	"fmt"
	"testing"
	"time"

	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

// Steady-state fused-kernel benchmarks. Run with -benchmem: the fused
// kernels run on the calling goroutine and must report 0 allocs/op
// (cmd/benchcheck enforces this in CI under -cpu 1,4).

func benchSizes() []int { return []int{1 << 14, 1 << 17, 1 << 20} }

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dM", n>>20)
	}
	return fmt.Sprintf("%dk", n>>10)
}

// BenchmarkFusedCompress measures the two-pass fused compress side as a
// context runs it (Blocks.AccumulateMaxAbs + Blocks.EncodeTernary)
// with recycled buffers. The size rows accumulate a Gaussian whose
// non-zero digits, under error feedback, scatter over every block, so
// pass 2 reads everything; the clustered row is 1M elements of
// clusteredInput, where it reads 2 % and CI gates the gap against the 1M
// row. The warm-up reaches that steady state (from a zero buffer the
// first steps quantize only the Gaussian's largest values) and converges
// the wire's capacity.
func BenchmarkFusedCompress(b *testing.B) {
	run := func(b *testing.B, in *tensor.Tensor) {
		n := in.Len()
		var x Blocks
		buf := make([]float32, n)
		var wire []byte
		for i := 0; i < 10; i++ {
			m := float64(x.AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire = x.EncodeTernary(buf, m, true, wire[:0])
		}
		b.SetBytes(4 * int64(n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := float64(x.AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire = x.EncodeTernary(buf, m, true, wire[:0])
		}
	}
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			in := tensor.New(n)
			fillRand(in, 1, 0.01)
			run(b, in)
		})
	}
	b.Run("clustered", func(b *testing.B) { run(b, clusteredInput(1<<20)) })
}

// BenchmarkStagedCompress is the same workload through the staged
// seven-sweep reference pipeline with preallocated scratch — the
// comparison baseline for the fusion speedup (benchcheck gates
// FusedCompress against this).
func BenchmarkStagedCompress(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			in := tensor.New(n)
			fillRand(in, 1, 0.01)
			acc := tensor.New(n)
			deq := tensor.New(n)
			var tv quant.ThreeValue
			qbuf := make([]byte, encode.QuarticEncodedLen(n))
			var wire []byte
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Add(in)
				quant.Quantize3Into(acc, 1.75, &tv)
				quant.DequantizeInto(&tv, deq)
				acc.Sub(deq)
				encode.QuarticEncodeInto(tv.Q, qbuf)
				wire = encode.ZeroRunEncodeAppend(wire[:0], qbuf)
			}
		})
	}
}

// BenchmarkFusedDecompress measures a decode into a fresh buffer: a clear,
// then the single-pass LUT decode-add.
func BenchmarkFusedDecompress(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			buf := make([]float32, n)
			in := tensor.New(n)
			fillRand(in, 2, 0.01)
			m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire := EncodeTernary(buf, m, true, nil)
			dst := make([]float32, n)
			// Warm up the ScaledLUT free list so the measured loop is the true
			// steady state (first Get allocates the pooled table once).
			if err := DecodeTernaryAdd(wire, true, float32(m), dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(dst)
				if err := DecodeTernaryAdd(wire, true, float32(m), dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStagedDecompress is the staged decode baseline: zero-run
// expansion into scratch, then scaled quartic decode.
func BenchmarkStagedDecompress(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			buf := make([]float32, n)
			in := tensor.New(n)
			fillRand(in, 2, 0.01)
			m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire := EncodeTernary(buf, m, true, nil)
			scratch := make([]byte, encode.QuarticEncodedLen(n))
			dst := make([]float32, n)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode.ZeroRunDecodeInto(wire, scratch)
				if err := encode.QuarticDecodeScaledInto(scratch, dst, float32(m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeAdd measures the fused decode-accumulate: one LUT-driven
// pass that streams wire bytes and adds M·q directly into the aggregation
// buffer (the server-side AddPush hot path). Serial — must be 0 allocs/op
// under -benchmem; benchcheck gates it against BenchmarkDecodeThenAdd.
func BenchmarkDecodeAdd(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			buf := make([]float32, n)
			in := tensor.New(n)
			fillRand(in, 2, 0.01)
			m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire := EncodeTernary(buf, m, true, nil)
			acc := make([]float32, n)
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
		})
	}
}

// BenchmarkDecodeThenAdd is the staged aggregation baseline the fusion
// replaces: a decode into a fresh scratch tensor (a clear, then the
// decode-add), then a separate add sweep into the accumulator.
func BenchmarkDecodeThenAdd(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(sizeName(n), func(b *testing.B) {
			buf := make([]float32, n)
			in := tensor.New(n)
			fillRand(in, 2, 0.01)
			m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire := EncodeTernary(buf, m, true, nil)
			scratch := make([]float32, n)
			acc := make([]float32, n)
			if err := DecodeTernaryAdd(wire, true, float32(m), scratch); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(scratch)
				if err := DecodeTernaryAdd(wire, true, float32(m), scratch); err != nil {
					b.Fatal(err)
				}
				for j, v := range scratch {
					acc[j] += v
				}
			}
		})
	}
}

// TestFusedFasterThanStaged asserts the point of the whole exercise: the
// fused two-pass compress beats the staged seven-sweep pipeline on the
// same data. The margin is left loose (1.2x serial) so slow CI machines
// do not flake; local hardware typically shows well above that.
func TestFusedFasterThanStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 1 << 20
	in := tensor.New(n)
	fillRand(in, 1, 0.01)

	stagedNs := benchNs(3, func() {
		acc := tensor.New(n)
		deq := tensor.New(n)
		var tv quant.ThreeValue
		qbuf := make([]byte, encode.QuarticEncodedLen(n))
		var wire []byte
		for i := 0; i < 3; i++ {
			acc.Add(in)
			quant.Quantize3Into(acc, 1.75, &tv)
			quant.DequantizeInto(&tv, deq)
			acc.Sub(deq)
			encode.QuarticEncodeInto(tv.Q, qbuf)
			wire = encode.ZeroRunEncodeAppend(wire[:0], qbuf)
		}
	})
	fusedNs := benchNs(3, func() {
		buf := make([]float32, n)
		var wire []byte
		for i := 0; i < 3; i++ {
			m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
			wire = EncodeTernary(buf, m, true, wire[:0])
		}
	})
	ratio := float64(stagedNs) / float64(fusedNs)
	t.Logf("staged %d ns, fused %d ns: %.2fx", stagedNs, fusedNs, ratio)
	if ratio < 1.2 {
		t.Errorf("fused compress only %.2fx over staged, want >= 1.2x", ratio)
	}
}

func benchNs(trials int, fn func()) int64 {
	fn() // warm up
	best := int64(1<<63 - 1)
	for i := 0; i < trials; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}
