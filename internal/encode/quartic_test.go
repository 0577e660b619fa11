package encode

import (
	"bytes"
	"testing"
	"testing/quick"

	"threelc/internal/tensor"
)

func ternary(rng *tensor.RNG, n int) []int8 {
	q := make([]int8, n)
	for i := range q {
		q[i] = int8(rng.Intn(3)) - 1
	}
	return q
}

// ternaryData is ~50% zeros, like a sparsified gradient.
func ternaryData(seed uint64, n int) []int8 {
	rng := tensor.NewRNG(seed)
	q := make([]int8, n)
	for i := range q {
		switch rng.Intn(4) {
		case 0:
			q[i] = 1
		case 1:
			q[i] = -1
		default:
			q[i] = 0
		}
	}
	return q
}

func TestQuarticZeroGroupByte(t *testing.T) {
	// Five zeros must encode to byte 121 (§3.3 relies on this).
	got := QuarticEncode([]int8{0, 0, 0, 0, 0})
	if len(got) != 1 || got[0] != ZeroGroupByte {
		t.Fatalf("five zeros encode to %v, want [121]", got)
	}
}

func TestQuarticExtremeGroups(t *testing.T) {
	if b := QuarticEncode([]int8{-1, -1, -1, -1, -1}); b[0] != 0 {
		t.Errorf("all -1 encodes to %d, want 0", b[0])
	}
	if b := QuarticEncode([]int8{1, 1, 1, 1, 1}); b[0] != MaxQuartic {
		t.Errorf("all +1 encodes to %d, want 242", b[0])
	}
}

func TestQuarticKnownValue(t *testing.T) {
	// Figure 3: the group (-1,0,0,1,0) -> digits (0,1,1,2,1)
	// = 0*81 + 1*27 + 1*9 + 2*3 + 1 = 43.
	b := QuarticEncode([]int8{-1, 0, 0, 1, 0})
	if b[0] != 43 {
		t.Errorf("encoded %d, want 43", b[0])
	}
}

func TestQuarticOutputRange(t *testing.T) {
	rng := tensor.NewRNG(1)
	q := ternary(rng, 100000)
	enc := QuarticEncode(q)
	for i, b := range enc {
		if b > MaxQuartic {
			t.Fatalf("byte %d at %d exceeds 242", b, i)
		}
	}
}

func TestQuarticEncodedLen(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 1}, {6, 2}, {10, 2}, {11, 3},
	}
	for _, c := range cases {
		if got := QuarticEncodedLen(c.n); got != c.want {
			t.Errorf("QuarticEncodedLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuarticRoundTripAllLengths(t *testing.T) {
	rng := tensor.NewRNG(2)
	for n := 0; n <= 32; n++ {
		q := ternary(rng, n)
		dec := QuarticDecode(QuarticEncode(q), n)
		if len(dec) != n {
			t.Fatalf("n=%d: decode length %d", n, len(dec))
		}
		for i := range q {
			if dec[i] != q[i] {
				t.Fatalf("n=%d: mismatch at %d: %d != %d", n, i, dec[i], q[i])
			}
		}
	}
}

// Property: encode/decode is the identity for any ternary input.
func TestQuarticRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw) % 2000
		q := ternary(tensor.NewRNG(seed), n)
		dec := QuarticDecode(QuarticEncode(q), n)
		for i := range q {
			if dec[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuarticDecodeRejectsRunBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on byte > 242")
		}
	}()
	QuarticDecode([]byte{243}, 5)
}

func TestQuarticDecodeShortInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on truncated input")
		}
	}()
	QuarticDecode([]byte{121}, 6)
}

func TestQuarticEncodeIntoSmallDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on small dst")
		}
	}()
	QuarticEncodeInto(make([]int8, 10), make([]byte, 1))
}

func TestQuarticCompressionFactor(t *testing.T) {
	// 1.6 bits per value = exactly 1 byte per 5 values.
	q := make([]int8, 1000)
	enc := QuarticEncode(q)
	if len(enc) != 200 {
		t.Errorf("1000 values -> %d bytes, want 200", len(enc))
	}
	if !bytes.Equal(enc, bytes.Repeat([]byte{ZeroGroupByte}, 200)) {
		t.Error("all-zero input should be all 121 bytes")
	}
}

func TestQuarticPaddingIsTernaryZero(t *testing.T) {
	// A lone +1 pads with zeros: digits (2,1,1,1,1) = 2*81+27+9+3+1 = 202.
	b := QuarticEncode([]int8{1})
	if b[0] != 202 {
		t.Errorf("padded group encodes to %d, want 202", b[0])
	}
}

func TestQuarticDecodeScaledIntoMatchesDecode(t *testing.T) {
	const n = 9999
	q := ternaryData(3, n)
	enc := QuarticEncode(q)
	const scale = 0.125
	dst := make([]float32, n)
	if err := QuarticDecodeScaledInto(enc, dst, scale); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != scale*float32(q[i]) {
			t.Fatalf("value %d: %v, want %v", i, dst[i], scale*float32(q[i]))
		}
	}
}

func TestQuarticDecodeScaledIntoErrors(t *testing.T) {
	if err := QuarticDecodeScaledInto([]byte{121}, make([]float32, 10), 1); err == nil {
		t.Error("short input must error")
	}
	if err := QuarticDecodeScaledInto([]byte{250, 121}, make([]float32, 10), 1); err == nil {
		t.Error("byte > MaxQuartic must error")
	}
}

func BenchmarkQuarticDecodeScaled1M(b *testing.B) {
	const n = 1 << 20
	q := ternaryData(12, n)
	enc := QuarticEncode(q)
	dst := make([]float32, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := QuarticDecodeScaledInto(enc, dst, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
