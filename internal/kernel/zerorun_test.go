package kernel

import (
	"bytes"
	"math"
	"testing"

	"threelc/internal/encode"
)

const negZeroBits = 1 << 31

// runHeavyBody builds a valid zero-run-encoded body for n elements: a long
// run (a long-run token plus a remainder marker),
// one literal group with mixed digits, a second long run, a final literal
// group (partial when n % 5 != 0). It also returns, per element, whether a
// run token covers it. n must be at least 60 groups' worth.
func runHeavyBody(t *testing.T, n int) (body []byte, inRun []bool) {
	t.Helper()
	groups := encode.QuarticEncodedLen(n)
	inRun = make([]bool, n)
	emitRuns := func(at, count int) {
		for g := at; g < at+count; g++ {
			for i := g * encode.GroupSize; i < min((g+1)*encode.GroupSize, n); i++ {
				inRun[i] = true
			}
		}
		body = encode.ZeroRunEncodeAppend(body, bytes.Repeat([]byte{encode.ZeroGroupByte}, count))
	}
	first := (groups - 2) / 2
	emitRuns(0, first)
	body = append(body, 5) // digits 0,0,0,+1,+1 shifted: a literal with zeros inside
	emitRuns(first+1, groups-2-first)
	body = append(body, 200)
	if err := scanTernaryBody(body, true, groups); err != nil {
		t.Fatalf("runHeavyBody(%d) built an invalid body: %v", n, err)
	}
	return body, inRun
}

// runSizes covers both decode forms: the inline-multiply small path and
// the ScaledLUT path, the latter with a partial trailing group.
var runSizes = []int{640, scaledLUTMinElems + 13}

// TestDecodeAddNonFiniteScaleStillFillsRuns pins the one case the
// zero-run skip must not take: under a NaN or ±Inf scale m·0 is NaN, and
// it has to reach every element a run covers, on every tier, exactly as
// the staged decode-then-add propagates it.
func TestDecodeAddNonFiniteScaleStillFillsRuns(t *testing.T) {
	tierSweep(func(tier Tier) {
		for _, n := range runSizes {
			body, inRun := runHeavyBody(t, n)
			for _, m := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
				got := make([]float32, n)
				for i := range got {
					got[i] = float32(i%11) - 5
				}
				want := append([]float32(nil), got...)
				stagedDecodeAdd(t, body, true, m, want)
				if err := DecodeTernaryAdd(body, true, m, got); err != nil {
					t.Fatal(err)
				}
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("tier %v n=%d m=%v: differs from decode-then-add at %d: %x vs %x",
						tier, n, m, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				for i, r := range inRun {
					if r && got[i] == got[i] {
						t.Fatalf("tier %v n=%d m=%v: run element %d = %v, want NaN", tier, n, m, i, got[i])
					}
				}
				var live Blocks
				sum := make([]float32, n)
				if err := live.DecodeTernaryAdd(body, true, m, sum); err != nil {
					t.Fatal(err)
				}
				for i, r := range inRun {
					if r && sum[i] == sum[i] {
						t.Fatalf("tier %v n=%d m=%v: recorded sum's run element %d = %v, want NaN", tier, n, m, i, sum[i])
					}
				}
			}
		}
	})
}

// TestDecodeAddZeroRunNegativeZero pins the documented corner of the
// zero-run skip. A destination holding −0 under a run: with m < 0 the run
// stands for −0 and (−0) + (−0) = −0, so skip and dense add agree bit for
// bit; with m > 0 the run stands for +0, the dense add would produce
// (−0) + (+0) = +0, and the skip leaves −0 — equal under ==, one sign bit
// apart. Literal groups always take the real add.
func TestDecodeAddZeroRunNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(negZeroBits)
	tierSweep(func(tier Tier) {
		for _, n := range runSizes {
			body, inRun := runHeavyBody(t, n)
			for _, m := range []float32{-1.5, 1.5} {
				got := make([]float32, n)
				want := make([]float32, n)
				for i := range got {
					got[i], want[i] = negZero, negZero
				}
				stagedDecodeAdd(t, body, true, m, want)
				if err := DecodeTernaryAdd(body, true, m, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("tier %v n=%d m=%v: element %d = %v, dense add gives %v", tier, n, m, i, got[i], want[i])
					}
					gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
					if m < 0 || !inRun[i] {
						if gb != wb {
							t.Fatalf("tier %v n=%d m=%v: element %d bits %x, dense add gives %x", tier, n, m, i, gb, wb)
						}
						continue
					}
					if gb != negZeroBits || wb != 0 {
						t.Fatalf("tier %v n=%d m=%v: run element %d bits %x (dense %x), want the documented −0 kept where dense yields +0",
							tier, n, m, i, gb, wb)
					}
				}
			}
		}
	})
}
