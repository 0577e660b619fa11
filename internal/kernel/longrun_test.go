package kernel

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/tensor"
)

// longRunLens are the zero-run lengths, in groups, at every edge of the
// token grammar: the literal (1), the short markers' ends (2, 13), a bare
// long-run token and its neighbours (14, 15), the first multiple and its
// neighbours (27, 28, 29), and the uvarint's second byte (14·128 ± 1).
var longRunLens = []int{1, 2, 13, 14, 15, 27, 28, 29, 14*128 - 1, 14 * 128, 14*128 + 1}

// runTensor is an n-element tensor of ones with the groups [at, at+run)
// zeroed: against the scale 1 every one quantizes to +1 and the hole to one
// zero run of exactly run groups (a run reaching the partial tail group
// covers it).
func runTensor(n, at, run int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if g := i / encode.GroupSize; g < at || g >= at+run {
			v[i] = 1
		}
	}
	return v
}

// TestLongRunTokenEveryEdge holds the kernel to the staged encode
// reference byte for byte — without and with a block index, on every
// available tier — and the three decoders to the staged decode, for runs
// of every edge length placed at the start of the stream, at its end (over
// the partial tail group) and across every block boundary, where the
// indexed encode joins one block's run to the next.
func TestLongRunTokenEveryEdge(t *testing.T) {
	const n = 5*2000 + 3 // 2001 groups, the last one partial; above scaledLUTMinElems
	groups := encode.QuarticEncodedLen(n)
	tierSweep(func(tier Tier) {
		for _, run := range longRunLens {
			places := map[int]bool{0: true, groups - run: true}
			for b := BlockElems; b < n; b += BlockElems {
				// Centred on the boundary, and ending one group past it.
				for _, at := range []int{b/encode.GroupSize - run/2, b/encode.GroupSize + 1 - run} {
					places[min(max(at, 0), groups-run)] = true
				}
			}
			for at := range places {
				checkRunTensor(t, fmt.Sprintf("tier %v run %d at %d", tier, run, at), runTensor(n, at, run), run)
			}
		}
		// The whole tensor zero, quantized (a spike too small to register
		// keeps m above 0) and through the m == 0 short cut.
		for _, n := range []int{4, 5 * 13, 5 * 14, 5*14*128 + 1, 5*14*128*3 + 2} {
			all := encode.QuarticEncodedLen(n)
			want := encode.ZeroRunEncode(bytes.Repeat([]byte{encode.ZeroGroupByte}, all))
			if got := EncodeTernary(make([]float32, n), 0, true, nil); !bytes.Equal(got, want) {
				t.Fatalf("tier %v n=%d: m=0 wire % x, want % x", tier, n, got, want)
			}
			if len(want) > 1+encode.MaxRunVarint+1 {
				t.Fatalf("n=%d: an all-zero tensor took %d bytes", n, len(want))
			}
			v := make([]float32, n)
			v[n/2] = 0.25
			for _, x := range []*BlockMax{nil, new(BlockMax)} {
				buf := append([]float32(nil), v...)
				x.AccumulateMaxAbs(buf, make([]float32, n))
				if got := x.EncodeTernary(buf, 1, true, nil); !bytes.Equal(got, want) {
					t.Fatalf("tier %v n=%d indexed=%v: all-zero wire % x, want % x", tier, n, x != nil, got, want)
				}
			}
		}
	})
}

// checkRunTensor encodes v (see runTensor) every way the kernel can and
// decodes the wire every way it can.
func checkRunTensor(t *testing.T, name string, v []float32, run int) {
	t.Helper()
	n := len(v)
	want, m32 := stagedTernary(tensor.New(n), tensor.FromSlice(append([]float32(nil), v...), n), 1, true)
	if n := bytes.Count(encode.ZeroRunDecode(want), []byte{encode.ZeroGroupByte}); n != run {
		t.Fatalf("%s: reference wire holds %d zero groups", name, n)
	}
	for _, x := range []*BlockMax{nil, new(BlockMax)} {
		buf := make([]float32, n)
		x.AccumulateMaxAbs(buf, v)
		if got := x.EncodeTernary(buf, float64(m32), true, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s indexed=%v: wire % x, want % x", name, x != nil, got, want)
		}
	}
	dec, err := stagedDecode(want, true, m32, n)
	if err != nil {
		t.Fatalf("%s: staged decode: %v", name, err)
	}
	got := make([]float32, n)
	if err := DecodeTernary(want, true, m32, got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if i, ok := bitsEqual(got, dec); !ok {
		t.Fatalf("%s: decode differs at %d", name, i)
	}
	for i := range dec {
		dec[i] += 3
	}
	for i := range got {
		got[i] = 3
	}
	if err := DecodeTernaryAdd(want, true, m32, got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if i, ok := bitsEqual(got, dec); !ok {
		t.Fatalf("%s: decode-add differs at %d", name, i)
	}
}

// TestDecodeAddSpanBeginsInsideLongRun pins the wire of one token standing
// for most of the tensor, far above the 14 groups one byte used to cover,
// and the decode-add of it.
func TestDecodeAddSpanBeginsInsideLongRun(t *testing.T) {
	const n = 5 * (14*128*4 + 3)
	body := EncodeTernary(runTensor(n, 1, 14*128*4), 1, true, nil)
	if want := []byte{242, encode.LongRun, 0xff, 0x03, 242, 242}; !bytes.Equal(body, want) {
		t.Fatalf("body % x, want % x", body, want)
	}
	got := make([]float32, n)
	if err := DecodeTernaryAdd(body, true, 1, got); err != nil {
		t.Fatal(err)
	}
	if i, ok := bitsEqual(got, runTensor(n, 1, 14*128*4)); !ok {
		t.Fatalf("decode-add differs at %d", i)
	}
}

// TestLongRunTokenMalformed: every way a long-run token can be wrong is an
// error from all three decoders — never a panic, and on the add paths
// never a write to dst. 10 groups of room throughout.
func TestLongRunTokenMalformed(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"token is the last byte", []byte{250, encode.LongRun}},
		{"uvarint cut short", []byte{encode.LongRun, 0x80}},
		{"uvarint of six bytes", []byte{encode.LongRun, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
		{"expansion overflows a 32-bit int", []byte{encode.LongRun, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"largest uvarint the grammar admits", []byte{encode.LongRun, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"expansion overflows nothing but the tensor", []byte{encode.LongRun, 0x00}},
		{"second token overruns", []byte{248, encode.LongRun, 0x00}},
		{"valid tokens, then one more", []byte{251, encode.LongRun, 0x00}},
	} {
		tierSweep(func(tier Tier) {
			dst := make([]float32, n)
			if err := DecodeTernary(tc.body, true, 1, dst); err == nil {
				t.Errorf("tier %v %s: decoded", tier, tc.name)
			}
			for i := range dst {
				dst[i] = float32(i)
			}
			snap := append([]float32(nil), dst...)
			if err := DecodeTernaryAdd(tc.body, true, 1, dst); err == nil {
				t.Errorf("tier %v %s: decode-add accepted it", tier, tc.name)
			}
			var live LiveBlocks
			if err := live.DecodeTernaryAdd(tc.body, true, 1, dst); err == nil {
				t.Errorf("tier %v %s: decode-add into a recorded sum accepted it", tier, tc.name)
			}
			if i, ok := bitsEqual(dst, snap); !ok {
				t.Errorf("tier %v %s: rejected payload wrote dst[%d]", tier, tc.name, i)
			}
			if encode.ZeroRunDecodedLen(tc.body) == encode.QuarticEncodedLen(n) {
				t.Errorf("%s: the staged reference accepts it", tc.name)
			}
		})
	}
	// A run the tensor has exactly the room for, the uvarint spelled long.
	ok := []byte{encode.LongRun, 0x81, 0x00}
	dst := make([]float32, 5*14*2)
	if err := DecodeTernaryAdd(ok, true, float32(math.Inf(1)), dst); err != nil {
		t.Fatalf("padded uvarint refused: %v", err)
	}
	if dst[0] == dst[0] {
		t.Fatal("a non-finite scale did not reach the long run")
	}
}
