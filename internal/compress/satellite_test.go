package compress

import (
	"bytes"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/sparse"
	"threelc/internal/tensor"
)

// TestOneBitFusedMatchesStaged drives the fused 1-bit compressor and the
// staged quant.QuantizeOneBitInto composition over several accumulating
// steps: wires must be byte-identical and the error-feedback buffers
// bit-identical at every step.
func TestOneBitFusedMatchesStaged(t *testing.T) {
	const n = 2017
	shape := []int{n}
	fused := New(SchemeMQE1Bit, shape, Options{})

	acc := quant.NewErrorAccumulator(shape...)
	dequant := tensor.New(shape...)
	var q quant.OneBitQuantized

	for step := 0; step < 4; step++ {
		in := randTensor(uint64(100+step), n, 0.02)

		gotWire := fused.CompressInto(in, nil)

		sum := acc.Accumulate(in)
		quant.QuantizeOneBitInto(sum, &q)
		quant.DequantizeOneBitInto(&q, dequant)
		acc.Residual(dequant)
		wantWire := append([]byte{byte(SchemeMQE1Bit)}, appendF32(appendF32(nil, q.MPos), q.MNeg)...)
		wantWire = append(wantWire, q.Bits...)

		if !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("step %d: fused wire differs from staged (%d vs %d bytes)",
				step, len(gotWire), len(wantWire))
		}
		got := fused.(*oneBitCompressor).acc.Buffer().Data()
		want := acc.Buffer().Data()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("step %d: residual differs at %d: %x vs %x",
					step, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestTopKFusedMatchesStaged does the same for the sparsification
// baseline: the fused Add + SparsifyResidual path must reproduce
// the staged SparsifyInto/ReconstructInto/Residual composition byte for
// byte — same threshold RNG stream, same wires, same residuals.
func TestTopKFusedMatchesStaged(t *testing.T) {
	const n = 2017
	const seed = 99
	shape := []int{n}
	fused := New(SchemeTopK, shape, Options{Fraction: 0.25, Seed: seed})

	sp := sparse.NewSparsifier(0.25, tensor.NewRNG(seed^0x546f704b))
	acc := quant.NewErrorAccumulator(shape...)
	dequant := tensor.New(shape...)
	var sel sparse.Selection

	for step := 0; step < 4; step++ {
		in := randTensor(uint64(200+step), n, 0.02)

		gotWire := fused.CompressInto(in, nil)

		sum := acc.Accumulate(in)
		sp.SparsifyInto(sum, &sel)
		sparse.ReconstructInto(&sel, dequant)
		acc.Residual(dequant)
		wantWire := appendSelection(nil, byte(SchemeTopK), &sel)

		if !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("step %d: fused wire differs from staged (%d vs %d bytes)",
				step, len(gotWire), len(wantWire))
		}
		got := fused.(*topKCompressor).acc.Buffer().Data()
		want := acc.Buffer().Data()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("step %d: residual differs at %d: %x vs %x",
					step, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestOneBitTopKPassCounts extends the pass-count guarantee to the two
// satellite codecs: compress must sweep tensor memory exactly twice.
func TestOneBitTopKPassCounts(t *testing.T) {
	var passes []string
	kernel.PassHook = func(name string, elems int) { passes = append(passes, name) }
	defer func() { kernel.PassHook = nil }()

	const n = 1003
	in := randTensor(77, n, 0.01)
	for _, tc := range []struct {
		name string
		s    Scheme
		o    Options
	}{
		{"onebit", SchemeMQE1Bit, Options{}},
		{"topk", SchemeTopK, Options{Fraction: 0.25, Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := New(tc.s, []int{n}, tc.o)
			passes = nil
			ctx.CompressInto(in, nil)
			if len(passes) != 2 {
				t.Fatalf("CompressInto swept tensor memory %d times (%v), want exactly 2", len(passes), passes)
			}
		})
	}
}
