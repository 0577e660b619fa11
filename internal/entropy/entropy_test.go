package entropy

import (
	"bytes"
	"testing"
	"testing/quick"

	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func quarticData(seed uint64, n int, sparsity float64) []byte {
	rng := tensor.NewRNG(seed)
	in := tensor.New(n)
	tensor.FillNormal(in, 0.01, rng)
	tv := quant.Quantize3(in, sparsity)
	return encode.QuarticEncode(tv.Q)
}

func TestHuffmanRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{42},
		{1, 1, 1, 1, 1},
		[]byte("the quick brown fox jumps over the lazy dog"),
		quarticData(1, 10000, 1.0),
		quarticData(2, 10000, 1.9),
	}
	for i, data := range cases {
		enc := HuffmanEncode(data)
		dec, err := HuffmanDecode(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("case %d: round trip mismatch (%d vs %d bytes)", i, len(dec), len(data))
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := HuffmanDecode(HuffmanEncode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanCompressesSkewedData(t *testing.T) {
	// Quartic data at high sparsity is dominated by byte 121: Huffman
	// must compress it well below 8 bits/byte.
	data := quarticData(3, 100000, 1.9)
	enc := HuffmanEncode(data)
	ratio := float64(len(data)) / float64(len(enc))
	if ratio < 3 {
		t.Errorf("huffman ratio %v on highly skewed data, want > 3", ratio)
	}
}

func TestHuffmanDecodeErrors(t *testing.T) {
	if _, err := HuffmanDecode([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short stream")
	}
	// Declared length but truncated bit stream.
	enc := HuffmanEncode(bytes.Repeat([]byte{1, 2, 3, 4}, 100))
	if _, err := HuffmanDecode(enc[:len(enc)-5]); err == nil {
		t.Error("expected error for truncated body")
	}
	// No symbols declared but non-zero length.
	bogus := make([]byte, 4+256)
	bogus[0] = 10
	if _, err := HuffmanDecode(bogus); err == nil {
		t.Error("expected error for empty code table")
	}
}

func TestLZRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{7},
		bytes.Repeat([]byte{121}, 1000),
		[]byte("abcabcabcabcabc"),
		quarticData(4, 10000, 1.0),
		quarticData(5, 10000, 1.75),
	}
	for i, data := range cases {
		enc := LZEncode(data)
		dec, err := LZDecode(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestLZRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := LZDecode(LZEncode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLZCompressesRuns(t *testing.T) {
	data := bytes.Repeat([]byte{121}, 10000)
	enc := LZEncode(data)
	if len(enc) > len(data)/10 {
		t.Errorf("lz produced %d bytes for a 10000-byte run", len(enc))
	}
}

func TestLZDecodeErrors(t *testing.T) {
	for _, bad := range [][]byte{
		{1, 2},                      // too short
		{5, 0, 0, 0, 0x00, 200},     // literal run truncated
		{5, 0, 0, 0, 0x01, 4},       // match token truncated
		{5, 0, 0, 0, 0xff, 0, 0},    // unknown token
		{5, 0, 0, 0, 0x01, 4, 9, 0}, // match offset beyond output
	} {
		if _, err := LZDecode(bad); err == nil {
			t.Errorf("expected error for %v", bad)
		}
	}
}

func TestComparatorRatiosOnQuarticData(t *testing.T) {
	// Sanity: on quartic data all three compressors achieve > 1 ratio,
	// and ZRE is competitive with the general-purpose coders (the
	// paper's §3.3 claim is about speed, not ratio dominance).
	data := quarticData(6, 200000, 1.75)
	zre := encode.ZeroRunEncode(data)
	huff := HuffmanEncode(data)
	lz := LZEncode(data)
	t.Logf("quartic %d B -> ZRE %d, Huffman %d, LZ %d", len(data), len(zre), len(huff), len(lz))
	for name, n := range map[string]int{"zre": len(zre), "huffman": len(huff), "lz": len(lz)} {
		if n >= len(data) {
			t.Errorf("%s did not compress (%d >= %d)", name, n, len(data))
		}
	}
}
