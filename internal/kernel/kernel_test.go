package kernel

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

// --- staged reference pipeline ---------------------------------------------
//
// The staged seven-sweep composition from quant + encode is the
// bit-identical reference every fused kernel is tested (and fuzzed)
// against: accumulate, MaxAbs, quantize, dequantize, residual, quartic
// pack, zero-run encode as separate full sweeps.

// stagedTernary runs the staged 3LC pipeline: acc += in, quantize the sum,
// subtract the local dequantization (residual stays in acc), and return
// the wire payload plus the float32 scale M.
func stagedTernary(acc, in *tensor.Tensor, s float64, zre bool) ([]byte, float32) {
	acc.Add(in)
	tv := quant.Quantize3(acc, s)
	acc.Sub(quant.Dequantize3(tv))
	qe := encode.QuarticEncode(tv.Q)
	if zre {
		return encode.ZeroRunEncode(qe), tv.M
	}
	return qe, tv.M
}

// stagedStoch runs the staged stochastic-ternary pipeline.
func stagedStoch(in *tensor.Tensor, rng *tensor.RNG) ([]byte, float32) {
	tv := quant.QuantizeStochastic3(in, rng)
	return encode.QuarticEncode(tv.Q), tv.M
}

// stagedDecode reverses a ternary payload with the staged primitives:
// zero-run expand, then scaled quartic decode.
func stagedDecode(body []byte, zre bool, m float32, n int) ([]float32, error) {
	qlen := encode.QuarticEncodedLen(n)
	q := body
	if zre {
		if got := encode.ZeroRunDecodedLen(body); got != qlen {
			return nil, fmt.Errorf("staged: zero-run payload expands to %d bytes, want %d", got, qlen)
		}
		q = make([]byte, qlen)
		encode.ZeroRunDecodeInto(body, q)
	} else if len(body) != qlen {
		return nil, fmt.Errorf("staged: quartic payload %d bytes, want %d", len(body), qlen)
	}
	dst := make([]float32, n)
	if err := encode.QuarticDecodeScaledInto(q, dst, m); err != nil {
		return nil, err
	}
	return dst, nil
}

// stagedFirstAdd is stagedDecode added into a zeroed destination: the
// reference for a decode into a fresh buffer, the decode-add into zeros.
func stagedFirstAdd(body []byte, zre bool, m float32, n int) ([]float32, error) {
	v, err := stagedDecode(body, zre, m, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i, x := range v {
		out[i] += x
	}
	return out, nil
}

func bitsEqual(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func fillRand(t *tensor.Tensor, seed uint64, std float64) {
	rng := tensor.NewRNG(seed)
	tensor.FillNormal(t, std, rng)
}

// --- fused vs staged equivalence -------------------------------------------

// TestEncodeTernaryMatchesStaged drives the fused two-pass compressor and
// the staged seven-sweep reference over multiple accumulating steps and
// requires byte-identical wires and bit-identical residual buffers at
// every step, across sizes (including n % 5 != 0), sparsities, and both
// ZRE settings.
func TestEncodeTernaryMatchesStaged(t *testing.T) {
	for _, n := range []int{1, 4, 5, 6, 100, 997, 1280, 4099} {
		for _, s := range []float64{1.0, 1.5, 1.75, 1.999} {
			for _, zre := range []bool{true, false} {
				t.Run(fmt.Sprintf("n=%d/s=%v/zre=%v", n, s, zre), func(t *testing.T) {
					accStaged := tensor.New(n)
					bufFused := make([]float32, n)
					in := tensor.New(n)
					var wire []byte
					for step := 0; step < 6; step++ {
						fillRand(in, uint64(n*1000+step), 0.01)
						wantWire, wantM := stagedTernary(accStaged, in, s, zre)

						m := float64(AccumulateMaxAbs(bufFused, in.Data())) * s
						if math.Float32bits(float32(m)) != math.Float32bits(wantM) {
							t.Fatalf("step %d: scale %v != staged %v", step, float32(m), wantM)
						}
						wire = EncodeTernary(bufFused, m, zre, wire[:0])
						if !bytes.Equal(wire, wantWire) {
							t.Fatalf("step %d: fused wire (%d B) != staged wire (%d B)", step, len(wire), len(wantWire))
						}
						if i, ok := bitsEqual(bufFused, accStaged.Data()); !ok {
							t.Fatalf("step %d: residual differs at %d: %v vs %v", step, i, bufFused[i], accStaged.Data()[i])
						}
					}
				})
			}
		}
	}
}

// TestEncodeStochMatchesStaged pins the fused stochastic encoder to the
// staged quantizer: identical RNG consumption order means identical
// bytes.
func TestEncodeStochMatchesStaged(t *testing.T) {
	for _, n := range []int{3, 5, 100, 1003} {
		in := tensor.New(n)
		fillRand(in, uint64(n)+7, 0.01)
		rngStaged := tensor.NewRNG(42)
		rngFused := tensor.NewRNG(42)
		for step := 0; step < 4; step++ {
			wantWire, wantM := stagedStoch(in, rngStaged)
			m := float64(MaxAbs(in.Data()))
			if math.Float32bits(float32(m)) != math.Float32bits(wantM) {
				t.Fatalf("n=%d step %d: scale mismatch", n, step)
			}
			got := EncodeStoch(in.Data(), m, rngFused, nil)
			if !bytes.Equal(got, wantWire) {
				t.Fatalf("n=%d step %d: stoch wire differs", n, step)
			}
		}
	}
	// All-zero input must not consume RNG draws (the staged quantizer
	// returns early), or the two paths would diverge on later steps.
	zero := tensor.New(64)
	live := tensor.New(64)
	fillRand(live, 9, 0.01)
	rngStaged := tensor.NewRNG(5)
	rngFused := tensor.NewRNG(5)
	stagedStoch(zero, rngStaged)
	EncodeStoch(zero.Data(), 0, rngFused, nil)
	wantWire, _ := stagedStoch(live, rngStaged)
	got := EncodeStoch(live.Data(), float64(MaxAbs(live.Data())), rngFused, nil)
	if !bytes.Equal(got, wantWire) {
		t.Fatal("RNG state diverged after all-zero tensor")
	}
}

// TestDecodeTernaryMatchesStaged checks a decode into a fresh buffer — the
// LUT decode-add into zeros — against the staged zero-run-expand +
// scaled-quartic-decode reference added into zeros (stagedFirstAdd), on
// every tier, on both sides of the ScaledLUT threshold and for n % 5 != 0:
// at the wire's own scale and at scales no encoder emits — ±0, ±Inf, NaN,
// a negative scale and two subnormals. Under a negative or −0 scale the
// staged decode writes −0 where the add leaves +0; nothing else differs.
func TestDecodeTernaryMatchesStaged(t *testing.T) {
	odd := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		-0.75, math.Float32frombits(3), -math.Float32frombits(0x7fffff),
	}
	tierSweep(func(tier Tier) {
		for _, n := range []int{1, 5, 13, 100, 997, scaledLUTMinElems, 8192, 100_003} {
			for _, zre := range []bool{true, false} {
				buf := make([]float32, n)
				in := tensor.New(n)
				fillRand(in, uint64(n)+31, 0.01)
				m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
				body := EncodeTernary(buf, m, zre, nil)
				for _, m := range append([]float32{float32(m)}, odd...) {
					want, err := stagedFirstAdd(body, zre, m, n)
					if err != nil {
						t.Fatalf("n=%d zre=%v: staged decode: %v", n, zre, err)
					}
					got := make([]float32, n)
					if err := DecodeTernaryAdd(body, zre, m, got); err != nil {
						t.Fatalf("n=%d zre=%v: fused decode: %v", n, zre, err)
					}
					if i, ok := bitsEqual(got, want); !ok {
						t.Fatalf("tier %v n=%d zre=%v m=%x: decode differs at %d: %x vs %x", tier, n, zre,
							math.Float32bits(m), i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

// TestDecodeTernaryAllZero covers the all-zero wire (one maximal run) and
// the m == 0 encode fast path round-tripping into a zeroed buffer.
func TestDecodeTernaryAllZero(t *testing.T) {
	for _, n := range []int{4, 70, 5000} {
		buf := make([]float32, n)
		body := EncodeTernary(buf, 0, true, nil)
		out := make([]float32, n)
		if err := DecodeTernaryAdd(body, true, 0, out); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range out {
			if math.Float32bits(v) != 0 {
				t.Fatalf("n=%d: element %d = %v, want +0", n, i, v)
			}
		}
	}
}

// --- decode error paths (untrusted network input) ---------------------------

// TestDecodeTernaryErrors is the table test for malformed ZRE/quartic
// payloads: truncated and overlong bodies, runs overrunning the end, and
// invalid bytes must all return errors (extending the
// QuarticDecodeScaledInto error convention to the fused decoder), never
// panic — including around trailing partial groups (n % 5 != 0).
func TestDecodeTernaryErrors(t *testing.T) {
	// n = 13 → 3 quartic groups, last one partial (3 values).
	const n = 13
	valid := validZREBody(t, n)

	cases := []struct {
		name    string
		body    []byte
		zre     bool
		wantErr bool
	}{
		{"valid-zre", valid, true, false},
		{"truncated-zre", valid[:len(valid)-1], true, true},
		{"empty-zre", nil, true, true},
		{"overlong-literal", append(append([]byte(nil), valid...), encode.ZeroGroupByte), true, true},
		{"overlong-run", append(append([]byte(nil), valid...), byte(encode.RunBase)), true, true},
		{"run-overruns-end", []byte{byte(encode.LongRun - 1)}, true, true}, // 13 groups > 3
		{"long-run-overruns-end", []byte{encode.LongRun, 0}, true, true},   // 14 groups > 3
		{"run-short-of-end", []byte{byte(encode.RunBase)}, true, true},     // 2 groups < 3
		{"exact-run", []byte{byte(encode.RunBase + 1)}, true, false},       // run of 3 == gTotal
		{"valid-quartic", []byte{121, 121, 121}, false, false},
		{"quartic-truncated", []byte{121, 121}, false, true},
		{"quartic-overlong", []byte{121, 121, 121, 121}, false, true},
		{"quartic-run-byte", []byte{121, byte(encode.RunBase), 121}, false, true},
		{"quartic-255", []byte{121, 121, 255}, false, true},
		{"empty-quartic", nil, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]float32, n)
			err := DecodeTernaryAdd(tc.body, tc.zre, 0.5, dst)
			if tc.wantErr && err == nil {
				t.Fatalf("decode of %v succeeded, want error", tc.body)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("decode of %v failed: %v", tc.body, err)
			}
		})
	}

	// Same table through the large-tensor ScaledLUT path: a run
	// overrunning the end and an overlong payload must error there too.
	big := scaledLUTMinElems + 3 // partial trailing group
	bigBody := validZREBody(t, big)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"big-truncated", bigBody[:len(bigBody)-1]},
		{"big-overlong", append(append([]byte(nil), bigBody...), encode.ZeroGroupByte)},
		{"big-run-overrun", append(append([]byte(nil), bigBody...), 255)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]float32, big)
			if err := DecodeTernaryAdd(tc.body, true, 0.5, dst); err == nil {
				t.Fatal("malformed big payload decoded without error")
			}
		})
	}

	// n == 0 accepts only an empty body.
	if err := DecodeTernaryAdd(nil, true, 1, nil); err != nil {
		t.Fatalf("empty tensor, empty body: %v", err)
	}
	if err := DecodeTernaryAdd([]byte{121}, true, 1, nil); err == nil {
		t.Fatal("empty tensor with non-empty body decoded without error")
	}
}

// validZREBody builds a known-good zero-run-encoded payload for n values
// with a mix of runs and literals.
func validZREBody(t *testing.T, n int) []byte {
	t.Helper()
	buf := make([]float32, n)
	in := tensor.New(n)
	in.Data()[0] = 1 // sparse: long zero runs plus a literal group
	m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.0
	return EncodeTernary(buf, m, true, nil)
}

// --- pass counting -----------------------------------------------------------

// TestPassCounts is the pass-counting test double: the fused compress side
// must sweep tensor memory exactly twice and the decode side exactly once.
func TestPassCounts(t *testing.T) {
	type pass struct {
		name  string
		elems int
	}
	var passes []pass
	PassHook = func(name string, elems int) { passes = append(passes, pass{name, elems}) }
	defer func() { PassHook = nil }()

	const n = 1003
	buf := make([]float32, n)
	in := tensor.New(n)
	fillRand(in, 3, 0.01)

	passes = nil
	m := float64(AccumulateMaxAbs(buf, in.Data())) * 1.75
	wire := EncodeTernary(buf, m, true, nil)
	if len(passes) != 2 {
		t.Fatalf("fused compress made %d passes (%v), want exactly 2", len(passes), passes)
	}
	for _, p := range passes {
		if p.elems != n {
			t.Fatalf("pass %q swept %d elems, want %d", p.name, p.elems, n)
		}
	}

	passes = nil
	dst := make([]float32, n)
	if err := DecodeTernaryAdd(wire, true, float32(m), dst); err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 {
		t.Fatalf("fused decode made %d passes (%v), want exactly 1", len(passes), passes)
	}

	// A worker whose gradient tensor is its error buffer runs the
	// read-only pass 1 instead: still two passes, the first over n.
	passes = nil
	var rec Blocks
	m = float64(rec.MaxAbs(buf)) * 1.75
	rec.EncodeTernary(buf, m, true, nil)
	if len(passes) != 2 || passes[0] != (pass{"maxabs", n}) {
		t.Fatalf("read-only compress made passes %v, want maxabs over %d then the encode", passes, n)
	}

	// With a block index pass 2 reads only the blocks that can hold a
	// non-zero digit: under 5 % of a tensor
	// whose non-zero digits cluster, all of one whose digits are scattered
	// (the dense input at s = 1.75 puts one in every block). Pass 1 still
	// reads everything.
	const big = 1 << 20
	scattered, _ := decodeAddBenchInputs(big)
	for _, tc := range []struct {
		name         string
		in           []float32
		minRead, max int
	}{
		{"clustered", clusteredInput(big).Data(), 1, big/20 - 1},
		{"scattered", scattered.Data(), big, big},
	} {
		var x Blocks
		buf := make([]float32, big)
		passes = nil
		m := float64(x.AccumulateMaxAbs(buf, tc.in)) * 1.75
		x.EncodeTernary(buf, m, true, nil)
		if len(passes) != 2 || passes[0].elems != big {
			t.Fatalf("%s: indexed compress made passes %v, want 2 with pass 1 over %d", tc.name, passes, big)
		}
		if read := passes[1].elems; read < tc.minRead || read > tc.max {
			t.Fatalf("%s: pass 2 read %d of %d elements, want %d..%d", tc.name, read, big, tc.minRead, tc.max)
		}
	}

	// The gradient sum's side: a decode-add into a recorded sum touches
	// only the blocks a literal group lands in, and the optimizer sweep
	// reads the gradient of those alone — under 5 % of a clustered 1M sum,
	// all of a scattered one (a literal group in every block) and all under
	// a NaN scale. Still one pass each.
	w, v, acc := make([]float32, big), make([]float32, big), make([]float32, big)
	for _, tc := range []struct {
		name         string
		in           []float32
		nan          bool
		minRead, max int
	}{
		{"clustered", clusteredInput(big).Data(), false, 1, big/20 - 1},
		{"scattered", scattered.Data(), false, big, big},
		{"nan-scale", clusteredInput(big).Data(), true, big, big},
	} {
		buf := make([]float32, big)
		m := float64(AccumulateMaxAbs(buf, tc.in)) * 1.75
		body, scale := EncodeTernary(buf, m, true, nil), float32(m)
		if tc.nan {
			scale = float32(math.NaN())
		}
		var live Blocks
		live.Reset()
		sum := make([]float32, big)
		passes = nil
		if err := live.DecodeTernaryAdd(body, true, scale, sum); err != nil {
			t.Fatal(err)
		}
		live.SGDStep(w, v, sum, Sink{Acc: acc}, 1, 0, 0, 1)
		if len(passes) != 2 {
			t.Fatalf("%s: decode-add and sweep made passes %v, want 2", tc.name, passes)
		}
		for _, p := range passes {
			if p.elems < tc.minRead || p.elems > tc.max {
				t.Fatalf("%s: %s touched %d of %d elements, want %d..%d", tc.name, p.name, p.elems, big, tc.minRead, tc.max)
			}
		}
	}
}

// TestBlocksMaxAbsMatchesAccumulate pins the read-only pass 1 of a worker
// whose gradient tensor is its error buffer: over a buffer already holding
// e + g, Blocks.MaxAbs returns the max AccumulateMaxAbs returns after
// folding g into e, records the same block maxima, and writes nothing —
// on every tier, over block seams and tails, with NaN, ±Inf, −0 and
// denormals mixed in.
func TestBlocksMaxAbsMatchesAccumulate(t *testing.T) {
	nasty := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1 << 31), 0, math.Float32frombits(1), -3e38,
	}
	tierSweep(func(tier Tier) {
		for _, n := range []int{0, 1, 39, BlockElems - 1, BlockElems, BlockElems + 1, 3*BlockElems + 17, 1<<16 + 3} {
			e, g := tensor.New(n), tensor.New(n)
			fillRand(e, uint64(n)+1, 0.01)
			fillRand(g, uint64(n)+2, 0.01)
			for k := 0; k < n; k += 97 {
				g.Data()[k] = nasty[k%len(nasty)]
			}
			sum := make([]float32, n)
			for i := range sum {
				sum[i] = e.Data()[i] + g.Data()[i]
			}
			before := append([]float32(nil), sum...)
			var acc, ro Blocks
			want := acc.AccumulateMaxAbs(e.Data(), g.Data())
			got := ro.MaxAbs(sum)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%v n=%d: MaxAbs %x, AccumulateMaxAbs %x", tier, n, math.Float32bits(got), math.Float32bits(want))
			}
			if i, ok := bitsEqual(ro.max, acc.max); !ok {
				t.Fatalf("%v n=%d: block max %d differs", tier, n, i)
			}
			if i, ok := bitsEqual(sum, before); !ok {
				t.Fatalf("%v n=%d: MaxAbs wrote element %d", tier, n, i)
			}
			if plain := MaxAbs(sum); math.Float32bits(plain) != math.Float32bits(want) {
				t.Fatalf("%v n=%d: unrecorded MaxAbs %x, want %x", tier, n, math.Float32bits(plain), math.Float32bits(want))
			}
		}
	})
}

// TestScaledLUTCaching pins the per-M rebuild semantics: same bits skip
// the rebuild, different bits (including ±0) rebuild.
func TestScaledLUTCaching(t *testing.T) {
	var l ScaledLUT
	l.Build(2)
	if l.tab[242][0] != 2 { // digits of 242 are all +1
		t.Fatalf("tab[242][0] = %v, want 2", l.tab[242][0])
	}
	l.Build(3)
	if l.tab[242][0] != 3 {
		t.Fatalf("rebuild skipped: tab[242][0] = %v, want 3", l.tab[242][0])
	}
	negZero := math.Float32frombits(1 << 31)
	l.Build(negZero)
	if math.Float32bits(l.tab[242][4]) != math.Float32bits(negZero*1) {
		t.Fatal("-0 scale not rebuilt distinctly from +0")
	}
}
