package simd

import (
	"math"
	"math/rand"
	"testing"
)

// maxLiteral is the largest quartic literal byte (encode.MaxQuartic);
// anything above it is a zero-run marker the literal cores must stop at.
// Redeclared here because simd sits below the encode package.
const maxLiteral = 242

// refAccMaxAbs mirrors the scalar kernel core exactly.
func refAccMaxAbs(buf, in []float32) float32 {
	var m float32
	for i, v := range in {
		s := buf[i] + v
		buf[i] = s
		a := math.Float32frombits(math.Float32bits(s) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}

// refMaxAbs mirrors the scalar kernel's read-only |max| core exactly.
func refMaxAbs(buf []float32) float32 {
	var m float32
	for _, v := range buf {
		a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}

// nasty values every equivalence test mixes in: both NaN payload classes,
// infinities, signed zeros, denormals.
var nasty = []float32{
	float32(math.NaN()),
	math.Float32frombits(0x7fc00001),
	math.Float32frombits(0xffc00002),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x80000000), // -0
	0,
	math.Float32frombits(1), // smallest denormal
	-1e30, 1e30, 1, -1, 0.5,
}

// eqf is bit equality up to NaN payload: when both sides are NaN the
// payloads may legitimately differ between code shapes (the compiler
// commutes float adds, and x86 keeps operand 1's payload when both
// operands are NaN). NaN-ness itself must still agree exactly.
func eqf(a, b float32) bool {
	if math.Float32bits(a) == math.Float32bits(b) {
		return true
	}
	return a != a && b != b
}

func fillMixed(rng *rand.Rand, dst []float32) {
	for i := range dst {
		if rng.Intn(8) == 0 {
			dst[i] = nasty[rng.Intn(len(nasty))]
		} else {
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

// buildLUT makes a scaled LUT shaped like the kernel's: 243 valid rows of
// digit values scaled by m (including non-finite m), rows 243..255 zero.
func buildLUT(m float32) *[256][5]float32 {
	var tab [256][5]float32
	levels := [3]float32{m * -1, m * 0, m * 1}
	for b := 0; b < 243; b++ {
		x := b
		for k := 4; k >= 0; k-- {
			tab[b][k] = levels[x%3]
			x /= 3
		}
	}
	return &tab
}

func refAddLiterals(tab *[256][5]float32, body []byte, dst []float32) int {
	nb := 0
	for nb < len(body) && (nb+1)*5 <= len(dst) {
		b := body[nb]
		if b > maxLiteral {
			break
		}
		for k := 0; k < 5; k++ {
			dst[nb*5+k] += tab[b][k]
		}
		nb++
	}
	return nb
}

func literalBodies(rng *rand.Rand) [][]byte {
	bodies := [][]byte{
		nil,
		{0}, {242}, {243}, {255},
		{1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5},
		{10, 20, 250, 30}, {10, 20, 30, 250}, {250, 1, 2, 3},
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	bodies = append(bodies, long)
	allLit := make([]byte, 301)
	for i := range allLit {
		allLit[i] = byte(rng.Intn(243))
	}
	bodies = append(bodies, allLit)
	return bodies
}

// testAddLiterals holds AddScaledLiteralsAsm to refAddLiterals at scale m.
func testAddLiterals(t *testing.T, m float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	tab := buildLUT(m)
	for _, body := range literalBodies(rng) {
		for _, dstGroups := range []int{0, 1, 3, 4, 5, len(body), len(body) + 2} {
			dst := make([]float32, dstGroups*5)
			fillMixed(rng, dst)
			ref := append([]float32(nil), dst...)
			wantN := refAddLiterals(tab, body, ref)
			gotN := AddScaledLiteralsAsm(tab, body, dst)
			if gotN != wantN {
				t.Fatalf("m=%v len(body)=%d groups=%d: consumed %d, want %d", m, len(body), dstGroups, gotN, wantN)
			}
			for i := range dst {
				if !eqf(dst[i], ref[i]) {
					t.Fatalf("m=%v len(body)=%d groups=%d: dst[%d] %x != %x", m, len(body), dstGroups, i, math.Float32bits(dst[i]), math.Float32bits(ref[i]))
				}
			}
		}
	}
}

func TestDetectDoesNotPanic(t *testing.T) {
	f := Detect()
	t.Logf("features: %+v, HasAsm=%v", f, HasAsm)
}
