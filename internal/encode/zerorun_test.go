package encode

import (
	"bytes"
	"testing"
	"testing/quick"

	"threelc/internal/tensor"
)

func TestZeroRunBasic(t *testing.T) {
	// Figure 3: [113, 121, 121, 121, ...] -> runs of 121 collapse.
	in := []byte{113, 121, 121, 121}
	out := ZeroRunEncode(in)
	// 3 consecutive 121s -> 243 + (3-2) = 244.
	want := []byte{113, 244}
	if !bytes.Equal(out, want) {
		t.Fatalf("encoded %v, want %v", out, want)
	}
	if !bytes.Equal(ZeroRunDecode(out), in) {
		t.Fatalf("round trip failed: %v", ZeroRunDecode(out))
	}
}

func TestZeroRunLone121Unchanged(t *testing.T) {
	in := []byte{1, 121, 2}
	out := ZeroRunEncode(in)
	if !bytes.Equal(out, in) {
		t.Errorf("lone 121 must pass through: %v", out)
	}
}

func TestZeroRunRunLengths(t *testing.T) {
	for k := 2; k < RunUnit; k++ {
		in := bytes.Repeat([]byte{ZeroGroupByte}, k)
		out := ZeroRunEncode(in)
		if len(out) != 1 || out[0] != byte(RunBase+k-2) {
			t.Errorf("run of %d encoded to %v, want [%d]", k, out, RunBase+k-2)
		}
		if !bytes.Equal(ZeroRunDecode(out), in) {
			t.Errorf("run of %d failed round trip", k)
		}
	}
}

func TestZeroRunLongRunSplits(t *testing.T) {
	// 31 = 14·(1+1) + 3: one long-run token, one remainder marker.
	in := bytes.Repeat([]byte{ZeroGroupByte}, 31)
	out := ZeroRunEncode(in)
	want := []byte{LongRun, 1, 244}
	if !bytes.Equal(out, want) {
		t.Fatalf("31-run encoded to %v, want %v", out, want)
	}
	if !bytes.Equal(ZeroRunDecode(out), in) {
		t.Fatal("31-run round trip failed")
	}
}

func TestZeroRun15Split(t *testing.T) {
	// 15 = 14·(1+0) + lone 1 -> [255, 0, 121].
	in := bytes.Repeat([]byte{ZeroGroupByte}, 15)
	out := ZeroRunEncode(in)
	want := []byte{LongRun, 0, ZeroGroupByte}
	if !bytes.Equal(out, want) {
		t.Fatalf("15-run encoded to %v, want %v", out, want)
	}
}

func TestZeroRunEmptyInput(t *testing.T) {
	if len(ZeroRunEncode(nil)) != 0 {
		t.Error("empty input should encode to empty output")
	}
	if len(ZeroRunDecode(nil)) != 0 {
		t.Error("empty input should decode to empty output")
	}
}

func TestZeroRunNoRunsPassThrough(t *testing.T) {
	in := []byte{0, 50, 100, 242, 120, 122}
	out := ZeroRunEncode(in)
	if !bytes.Equal(out, in) {
		t.Errorf("run-free input changed: %v", out)
	}
}

func TestZeroRunNeverExpands(t *testing.T) {
	rng := tensor.NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(500)
		in := make([]byte, n)
		for i := range in {
			// Bias toward 121 to create runs.
			if rng.Float64() < 0.5 {
				in[i] = ZeroGroupByte
			} else {
				in[i] = byte(rng.Intn(243))
			}
		}
		out := ZeroRunEncode(in)
		if len(out) > len(in) {
			t.Fatalf("output %d bytes > input %d bytes", len(out), len(in))
		}
	}
}

// Property: ZeroRunDecode(ZeroRunEncode(x)) == x for any quartic data.
func TestZeroRunRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := tensor.NewRNG(seed)
		n := int(nRaw) % 3000
		in := make([]byte, n)
		for i := range in {
			if rng.Float64() < 0.6 {
				in[i] = ZeroGroupByte
			} else {
				in[i] = byte(rng.Intn(243))
			}
		}
		return bytes.Equal(ZeroRunDecode(ZeroRunEncode(in)), in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroRunDecodeInto(t *testing.T) {
	in := []byte{113, 121, 121, 121, 42}
	enc := ZeroRunEncode(in)
	dst := make([]byte, len(in))
	n := ZeroRunDecodeInto(enc, dst)
	if n != len(in) || !bytes.Equal(dst, in) {
		t.Fatalf("DecodeInto produced %v (%d bytes)", dst[:n], n)
	}
}

func TestZeroRunDecodeIntoOverflowPanics(t *testing.T) {
	enc := ZeroRunEncode(bytes.Repeat([]byte{ZeroGroupByte}, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	ZeroRunDecodeInto(enc, make([]byte, 5))
}

func TestZeroTensorEndToEndRatio(t *testing.T) {
	// §3.3: "In a hypothetical case of compressing a zero 32-bit
	// floating-point tensor, the combination of all techniques in 3LC
	// reaches a compression ratio of 280x."
	// n zero floats = 4n bytes raw. Quartic: n/5 bytes of 121. The paper's
	// ZRE: each 14-run -> 1 byte, so n/70 bytes. Ratio = 4n/(n/70) = 280.
	// The long-run token spells the same stream in 3 bytes: 255, uvarint(999).
	n := 70 * 1000
	q := make([]int8, n)
	zre := ZeroRunEncode(QuarticEncode(q))
	ratio := float64(4*n) / float64(ZeroRunPaperLen(zre))
	if ratio < 279.9 || ratio > 280.1 {
		t.Errorf("zero-tensor ratio in the paper's spelling = %.1f, want 280", ratio)
	}
	if !bytes.Equal(zre, []byte{LongRun, 0xe7, 0x07}) {
		t.Errorf("zero tensor encoded to %v, want one long-run token", zre)
	}
}

// paperZeroRunEncode is §3.3's own zero-run code, the spelling this
// package emitted before the long-run token: 243..255 stand for runs of
// 2..14 and a longer run is a chain of them. Kept here as the oracle of
// ZeroRunPaperLen.
func paperZeroRunEncode(in []byte) []byte {
	var out []byte
	for i := 0; i < len(in); {
		if in[i] != ZeroGroupByte {
			out = append(out, in[i])
			i++
			continue
		}
		run := 0
		for ; i < len(in) && in[i] == ZeroGroupByte; i++ {
			run++
		}
		for ; run >= 2; run -= min(run, 14) {
			out = append(out, byte(RunBase+min(run, 14)-2))
		}
		if run == 1 {
			out = append(out, ZeroGroupByte)
		}
	}
	return out
}

// TestZeroRunPaperLen: the paper's number stays derivable. Over the tokens
// of an emitted stream, ZeroRunPaperLen is exactly the length of §3.3's
// capped encoding of the same quartic bytes, and never more than one byte
// per bare LongRun token (a run of 14..27) short of the emitted length.
func TestZeroRunPaperLen(t *testing.T) {
	rng := tensor.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		// Zero fractions from run-free to the 0.998 the end-to-end wires
		// run at, where runs reach thousands of groups.
		p := []float64{0, 0.5, 0.9, 0.99, 0.9995}[trial%5]
		in := make([]byte, rng.Intn(6000))
		for i := range in {
			in[i] = ZeroGroupByte
			if rng.Float64() >= p {
				in[i] = byte(rng.Intn(243))
			}
		}
		wire := ZeroRunEncode(in)
		got, want := ZeroRunPaperLen(wire), len(paperZeroRunEncode(in))
		if got != want {
			t.Fatalf("p=%v n=%d: ZeroRunPaperLen %d, capped encoding %d bytes", p, len(in), got, want)
		}
		if lone := bytes.Count(wire, []byte{LongRun, 0}); got < len(wire)-lone {
			t.Fatalf("p=%v n=%d: paper length %d < emitted %d - %d bare long-run tokens", p, len(in), got, len(wire), lone)
		}
	}
	for _, bad := range [][]byte{{LongRun}, {7, LongRun, 0x80}, {LongRun, 0x80, 0x80, 0x80, 0x80, 0x80, 0}} {
		if ZeroRunPaperLen(bad) != -1 || ZeroRunDecodedLen(bad) != -1 {
			t.Errorf("malformed stream %v measured", bad)
		}
	}
}

func TestZeroRunEncodeAppendReusesBuffer(t *testing.T) {
	q := ternaryData(5, 10000)
	enc := QuarticEncode(q)
	want := ZeroRunEncode(enc)
	buf := ZeroRunEncodeAppend(nil, enc)
	if !bytes.Equal(buf, want) {
		t.Fatal("append form differs from allocating form")
	}
	// Second call into the recycled buffer must not grow it and must give
	// the same bytes.
	buf2 := ZeroRunEncodeAppend(buf[:0], enc)
	if &buf2[0] != &buf[0] {
		t.Error("recycled buffer was reallocated despite sufficient capacity")
	}
	if !bytes.Equal(buf2, want) {
		t.Fatal("recycled encode differs")
	}
	// Appending after a prefix preserves the prefix.
	pre := append([]byte(nil), 0xAA, 0xBB)
	out := ZeroRunEncodeAppend(pre, enc)
	if out[0] != 0xAA || out[1] != 0xBB || !bytes.Equal(out[2:], want) {
		t.Fatal("prefix not preserved")
	}
}
