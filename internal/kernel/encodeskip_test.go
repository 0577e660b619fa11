package kernel

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/tensor"
)

// The asm tier's encode skips the residual write-back of every 40-element
// block whose digits are all zero (see simd.QuantPackBlocks). These tests
// hold the skip's edges against the staged reference on every tier: wires
// byte-identical, residuals bit-identical — strictly, not up to NaN class.

// checkEncodeMatchesStaged accumulates in into fresh buffers and compares
// the fused encode, without and with a block index, with the staged
// pipeline.
func checkEncodeMatchesStaged(t *testing.T, tier Tier, in []float32, s float64, zre bool) {
	t.Helper()
	n := len(in)
	acc := tensor.New(n)
	wantWire, wantM := stagedTernary(acc, tensor.FromSlice(append([]float32(nil), in...), n), s, zre)
	for _, x := range []*BlockMax{nil, new(BlockMax)} {
		buf := make([]float32, n)
		m := float64(x.AccumulateMaxAbs(buf, in)) * s
		if math.Float32bits(float32(m)) != math.Float32bits(wantM) {
			t.Fatalf("tier %v n=%d: scale %v != staged %v", tier, n, float32(m), wantM)
		}
		got := x.EncodeTernary(buf, m, zre, nil)
		if !bytes.Equal(got, wantWire) {
			t.Fatalf("tier %v n=%d zre=%v indexed=%v: wire % x != staged % x", tier, n, zre, x != nil, got, wantWire)
		}
		if i, ok := bitsEqual(buf, acc.Data()); !ok {
			t.Fatalf("tier %v n=%d zre=%v indexed=%v: residual[%d] = %08x, staged %08x (in %08x)", tier, n, zre, x != nil,
				i, math.Float32bits(buf[i]), math.Float32bits(acc.Data()[i]), math.Float32bits(in[i]))
		}
	}
}

// TestEncodeSkipBlockEdges puts one special value at each of the 40
// positions of an otherwise-zero block — on, just under and mirrored across
// the threshold, NaN, ±Inf, −0 and a denormal — between a block that fixes
// the scale and a zero block plus tail, and at the edges of the second
// block of the block index, whose max it then is. A value that quantizes
// to zero must leave its block bit-untouched (−0 stays −0) and, in the
// index, let its block be skipped; one that does not must take the whole
// block through the dense residual write.
func TestEncodeSkipBlockEdges(t *testing.T) {
	const n, s = BlockElems + 3*40 + 7, 1.75
	tpos := ternaryThreshold(1 / (1 * s)) // max|in| is in[0] = 1 unless the value is ±Inf
	values := []float32{
		tpos, math.Nextafter32(tpos, 0), -tpos, -math.Nextafter32(tpos, 0),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(negZeroBits), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	}
	var positions []int
	for pos := 40; pos < 80; pos++ {
		positions = append(positions, pos)
	}
	positions = append(positions, BlockElems, BlockElems+1, n-1)
	tierSweep(func(tier Tier) {
		for _, v := range values {
			for _, pos := range positions {
				in := make([]float32, n)
				in[0] = 1
				in[pos] = v
				for _, zre := range []bool{true, false} {
					checkEncodeMatchesStaged(t, tier, in, s, zre)
				}
			}
		}
	})
}

// TestEncodeNonFiniteScaleStillWritesResiduals pins the one case the block
// skip must not take: under M = +Inf every digit is zero, yet m·0 is NaN and
// the residual v − NaN has to reach every element, on every tier.
func TestEncodeNonFiniteScaleStillWritesResiduals(t *testing.T) {
	tierSweep(func(tier Tier) {
		for _, n := range []int{40, 127, 1280} {
			for _, zre := range []bool{true, false} {
				buf := make([]float32, n)
				for i := range buf {
					buf[i] = float32(i%7) - 3 // includes exact zeros
				}
				wire := EncodeTernary(buf, math.Inf(1), zre, nil)
				want := EncodeTernary(make([]float32, n), 0, zre, nil) // the all-zero wire
				if !bytes.Equal(wire, want) {
					t.Fatalf("tier %v n=%d zre=%v: wire % x, want all zero groups % x", tier, n, zre, wire, want)
				}
				for i, v := range buf {
					if v == v {
						t.Fatalf("tier %v n=%d zre=%v: residual[%d] = %v, want NaN", tier, n, zre, i, v)
					}
				}
			}
		}
	})
}

// TestEncodeBlockTailSeams sweeps lengths across the block, group and tail
// seams of the asm tier (whole 40-element blocks, then 5-element groups,
// then a partial group) on a sparse and a dense input.
func TestEncodeBlockTailSeams(t *testing.T) {
	var lengths []int
	for n := 1; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for _, k := range []int{3, 8, 26} {
		for n := 40*k - 7; n <= 40*k+7; n++ {
			lengths = append(lengths, n)
		}
	}
	dense, sparse := decodeAddBenchInputs(40*26 + 7)
	tierSweep(func(tier Tier) {
		if got := EncodeTernary(nil, 0, true, nil); len(got) != 0 {
			t.Fatalf("tier %v: empty tensor encodes to % x", tier, got)
		}
		for _, n := range lengths {
			for _, in := range [][]float32{dense.Data()[:n], sparse.Data()[:n], sparse.Data()[len(sparse.Data())-n:]} {
				for _, zre := range []bool{true, false} {
					checkEncodeMatchesStaged(t, tier, in, 1.0, zre)
					checkEncodeMatchesStaged(t, tier, in, 1.75, zre)
				}
			}
		}
	})
}

// TestCompactChunkMatchesSerialZRE holds the word-at-a-time walker against
// the staged byte-at-a-time encoder on packed streams chosen for its seams: runs
// that start, end and straddle word boundaries, lone zero groups, literal
// words, and regions shorter than a word.
func TestCompactChunkMatchesSerialZRE(t *testing.T) {
	const z = encode.ZeroGroupByte
	rng := tensor.NewRNG(9)
	for trial := 0; trial < 4000; trial++ {
		n := int(rng.Uint64() % 70)
		region := make([]byte, n)
		zeroOdds := []uint64{2, 8, 64}[trial%3]
		for i := range region {
			region[i] = byte(rng.Uint64() % 243)
			if rng.Uint64()%64 < zeroOdds*8 || (i > 0 && region[i-1] == z && rng.Uint64()%4 != 0) {
				region[i] = z
			}
		}
		// Reference: lead/trail counts, and the staged zero-run encoder over
		// the middle (which starts and ends on a non-zero group, so its
		// encoding stands alone).
		lead := 0
		for lead < n && region[lead] == z {
			lead++
		}
		want := fmt.Sprintf("lead=%d allZero", lead)
		if lead < n {
			trail := 0
			for region[n-1-trail] == z {
				trail++
			}
			want = fmt.Sprintf("lead=%d trail=%d mid=% x", lead, trail, encode.ZeroRunEncode(region[lead:n-trail]))
		}
		orig := append([]byte(nil), region...)
		r := compactChunk(region)
		got := fmt.Sprintf("lead=%d trail=%d mid=% x", r.lead, r.trail, r.mid)
		if r.allZero {
			got = fmt.Sprintf("lead=%d allZero", r.lead)
		}
		if got != want {
			t.Fatalf("region % x:\n got %s\nwant %s", orig, got, want)
		}
	}
}
