package compress

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/sparse"
	"threelc/internal/tensor"
)

// addTestCases is one configuration per implemented scheme — all 8 codecs
// of the paper's evaluation and the packed wire of their exempt tensors —
// used to pin the fused decode-accumulate against the staged
// decode-then-add reference.
func addTestCases() []struct {
	name string
	s    Scheme
	o    Options
} {
	return []struct {
		name string
		s    Scheme
		o    Options
	}{
		{"32-bit float", SchemeNone, Options{}},
		{"8-bit int", SchemeInt8, Options{}},
		{"3LC", SchemeThreeLC, Options{Sparsity: 1.75, ZeroRun: true}},
		{"3LC no-ZRE", SchemeThreeLC, Options{Sparsity: 1.0, ZeroRun: false}},
		{"Stoch 3-value + QE", SchemeStoch3QE, Options{Seed: 9}},
		{"MQE 1-bit int", SchemeMQE1Bit, Options{}},
		{"25% sparsification", SchemeTopK, Options{Fraction: 0.25, Seed: 9}},
		{"2 local steps", SchemeLocalSteps, Options{Interval: 2}},
		{"packed float32", SchemePacked32, Options{}},
	}
}

// stagedDecompress is the add tests' reference decode of a well-formed
// wire, built on the staged primitives and sharing no code with the
// registered decoders: a raw wire is read a float at a time, int8 and
// 1-bit wires are dequantized (quant), a top-k wire is reconstructed
// (sparse), and a ternary wire is zero-run expanded and scaled-quartic
// decoded (encode). The packed wire, whose reference is the raw wire of the
// same tensor (TestPacked32RoundTripsEveryBit), and the empty wire go
// through DecompressInto.
func stagedDecompress(wire []byte, dst *tensor.Tensor) error {
	n, d := dst.Len(), dst.Data()
	if len(wire) == 0 {
		return DecompressInto(wire, dst)
	}
	body := wire[1:]
	switch Scheme(wire[0]) {
	case SchemeNone, SchemeLocalSteps:
		for i := range d {
			d[i] = getF32(body[4*i:])
		}
		return nil
	case SchemeInt8:
		q := &quant.Int8Quantized{Q: make([]int8, n), M: getF32(body)}
		for i := range q.Q {
			q.Q[i] = int8(body[4+i])
		}
		quant.DequantizeInt8Into(q, dst)
		return nil
	case SchemeMQE1Bit:
		quant.DequantizeOneBitInto(&quant.OneBitQuantized{Bits: body[8:], N: n, MPos: getF32(body), MNeg: getF32(body[4:])}, dst)
		return nil
	case SchemeTopK:
		bm := encode.BitmapSizeBytes(n)
		vals := make([]float32, (len(body)-bm)/4)
		for i := range vals {
			vals[i] = getF32(body[bm+4*i:])
		}
		sparse.ReconstructInto(&sparse.Selection{Mask: encode.BitmapFromBytes(body[:bm], n), Values: vals}, dst)
		return nil
	case SchemeThreeLC, SchemeStoch3QE:
	default:
		return DecompressInto(wire, dst)
	}
	qlen := encode.QuarticEncodedLen(n)
	q := wire[6:]
	if wire[5] == ternaryZRE {
		if got := encode.ZeroRunDecodedLen(q); got != qlen {
			return fmt.Errorf("staged: zero-run payload expands to %d bytes, want %d", got, qlen)
		}
		q = make([]byte, qlen)
		encode.ZeroRunDecodeInto(wire[6:], q)
	}
	if len(q) != qlen {
		return fmt.Errorf("staged: quartic payload %d bytes, want %d", len(q), qlen)
	}
	return encode.QuarticDecodeScaledInto(q, dst.Data(), getF32(wire[1:]))
}

// TestDecompressAddMatchesDecodeThenAdd is the aggregation differential
// test: for every codec, accumulating wires with DecompressAddInto must
// leave the accumulator byte-identical to the staged decode into scratch
// (stagedDecompress) followed by Add — across multiple steps
// (error-accumulation state advancing, including local-steps' empty
// wires).
func TestDecompressAddMatchesDecodeThenAdd(t *testing.T) {
	const n = 6007
	for _, tc := range addTestCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newContext(tc.s, []int{n}, tc.o)
			scratch := tensor.New(n)
			want := tensor.New(n)
			got := tensor.New(n)
			for step := 0; step < 4; step++ {
				in := randTensor(uint64(step)+31, n, 0.01)
				wire := ctx.CompressInto(in, nil)

				if err := stagedDecompress(wire, scratch); err != nil {
					t.Fatal(err)
				}
				want.Add(scratch)
				if err := DecompressAddInto(wire, got, 1); err != nil {
					t.Fatal(err)
				}
			}
			wantBits := want.Data()
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(wantBits[i]) {
					t.Fatalf("fused add differs at %d: %x vs %x",
						i, math.Float32bits(v), math.Float32bits(wantBits[i]))
				}
			}
		})
	}
}

// TestDecompressAddIntoRejectsWithoutCorruption truncates and corrupts
// wires for every scheme and asserts a rejected message leaves the
// accumulator bit-identical — the accumulator-safety contract of
// AddDecodeFunc.
func TestDecompressAddIntoRejectsWithoutCorruption(t *testing.T) {
	const n = 1024
	for _, tc := range addTestCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newContext(tc.s, []int{n}, tc.o)
			var wire []byte
			for len(wire) == 0 { // skip local-steps' empty first step
				wire = ctx.CompressInto(randTensor(3, n, 0.01), nil)
			}
			acc := randTensor(5, n, 1)
			snap := acc.Clone()
			bad := [][]byte{
				wire[:len(wire)-1],
				wire[:1],
				append(append([]byte{}, wire...), 0xff),
			}
			for bi, w := range bad {
				if err := DecompressAddInto(w, acc, 1); err == nil {
					t.Fatalf("malformed wire %d accepted", bi)
				}
				for i, v := range acc.Data() {
					if math.Float32bits(v) != math.Float32bits(snap.Data()[i]) {
						t.Fatalf("malformed wire %d corrupted accumulator at %d", bi, i)
					}
				}
			}
		})
	}
}

// TestDecompressAddEmptyWire pins the empty-wire (local steps,
// non-transmitting) semantics: an explicit += 0 sweep, which flips
// negative zeros to +0 exactly as adding a zeroed scratch tensor does.
func TestDecompressAddEmptyWire(t *testing.T) {
	acc := tensor.FromSlice([]float32{1, float32(math.Copysign(0, -1)), -2, 0}, 4)
	want := tensor.FromSlice(append([]float32(nil), acc.Data()...), 4)
	scratch := tensor.New(4)
	if err := DecompressInto(nil, scratch); err != nil {
		t.Fatal(err)
	}
	want.Add(scratch)
	if err := DecompressAddInto(nil, acc, 1); err != nil {
		t.Fatal(err)
	}
	for i, v := range acc.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("empty-wire add differs at %d: %x vs %x",
				i, math.Float32bits(v), math.Float32bits(want.Data()[i]))
		}
	}
	if math.Signbit(float64(acc.Data()[1])) {
		t.Fatal("empty-wire add must normalize -0 to +0 like the staged add")
	}
}

// TestDecompressAddPassCount extends the pass-count invariant to the
// aggregation path: DecompressAddInto on a ternary wire is exactly ONE
// sweep of tensor memory — decode+add = 1 pass.
func TestDecompressAddPassCount(t *testing.T) {
	var passes []string
	kernel.PassHook = func(name string, elems int) { passes = append(passes, name) }
	defer func() { kernel.PassHook = nil }()

	const n = 9001
	ctx := New(SchemeThreeLC, []int{n}, Options{Sparsity: 1.75, ZeroRun: true})
	wire := ctx.CompressInto(randTensor(1, n, 0.01), nil)
	acc := tensor.New(n)

	passes = nil
	if err := DecompressAddInto(wire, acc, 1); err != nil {
		t.Fatal(err)
	}
	if len(passes) != 1 || passes[0] != "lut-decode-add" {
		t.Fatalf("DecompressAddInto swept tensor memory %d times (%v), want exactly 1", len(passes), passes)
	}
}

// TestInt8FusedEncodeMatchesLegacy pins the fused int8 encode against the
// wire bytes the pre-kernel staged encoder produced (scheme byte + float32
// M + one int8 byte per element).
func TestInt8FusedEncodeMatchesLegacy(t *testing.T) {
	const n = 4099
	in := randTensor(13, n, 0.01)
	a := New(SchemeInt8, []int{n}, Options{}).CompressInto(in, nil)
	// Round trip through the registry decoder must reproduce the staged
	// dequantization exactly.
	out := tensor.New(n)
	if err := DecompressInto(a, out); err != nil {
		t.Fatal(err)
	}
	m := in.MaxAbs()
	scale := m / 127
	for i, v := range out.Data() {
		q := math.Round(float64(in.Data()[i]) * float64(127) / float64(m))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		want := scale * float32(int8(q))
		if math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("int8 round trip differs at %d: %v vs %v", i, v, want)
		}
	}
}

// TestDecompressFirstAddMatchesZeroThenAdd pins DecompressInto's first-add
// contract for every codec: over a destination holding stale sums it
// leaves, bit for bit, what zeroing the destination and DecompressAddInto
// leave. The float wires, raw and packed, are the ones it does not zero
// for but adds to +0 in registers, and the ones that could tell the
// difference — a float wire can carry −0 and a copy would keep its sign —
// so their inputs get negative zeros planted in them; every other wire,
// ternary included, takes the zeroing.
func TestDecompressFirstAddMatchesZeroThenAdd(t *testing.T) {
	const n = 1031
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range addTestCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newContext(tc.s, []int{n}, tc.o)
			for step := 0; step < 3; step++ {
				in := randTensor(uint64(step)+71, n, 0.01)
				for i := step; i < n; i += 7 {
					in.Data()[i] = negZero
				}
				wire := ctx.CompressInto(in, nil)
				want := randTensor(9, n, 1)
				want.Zero()
				if err := DecompressAddInto(wire, want, 1); err != nil {
					t.Fatal(err)
				}
				got := randTensor(9, n, 1)
				if err := DecompressInto(wire, got); err != nil {
					t.Fatal(err)
				}
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("step %d: first add differs from zero-then-add at %d: %x vs %x",
							step, i, math.Float32bits(v), math.Float32bits(want.Data()[i]))
					}
				}
			}
		})
	}
}

// TestRawPayloadLengthRejected feeds both raw schemes a payload one byte
// short and one float long through both decoders: each returns an error,
// an add leaves its destination untouched, and a first add
// (DecompressInto) leaves it zeroed — the staged state of a fresh sum
// whose first accumulation was rejected.
func TestRawPayloadLengthRejected(t *testing.T) {
	const n = 45
	good := New(SchemeNone, []int{n}, Options{}).CompressInto(randTensor(3, n, 0.01), nil)
	for _, scheme := range []Scheme{SchemeNone, SchemeLocalSteps} {
		for name, wire := range map[string][]byte{
			"short": append([]byte{byte(scheme)}, good[1:len(good)-1]...),
			"long":  append(append([]byte{byte(scheme)}, good[1:]...), 0, 0, 0, 0),
		} {
			stale := randTensor(5, n, 1)
			dst := stale.Clone()
			if err := DecompressAddInto(wire, dst, 1); err == nil {
				t.Fatalf("%v %s payload: add accepted it", scheme, name)
			}
			if !dst.Equal(stale) {
				t.Fatalf("%v %s payload: rejected add modified its destination", scheme, name)
			}
			dst = stale.Clone()
			if err := DecompressInto(wire, dst); err == nil {
				t.Fatalf("%v %s payload: first add accepted it", scheme, name)
			}
			for i, v := range dst.Data() {
				if math.Float32bits(v) != 0 {
					t.Fatalf("%v %s payload: rejected first add left %x at %d, want +0", scheme, name, math.Float32bits(v), i)
				}
			}
		}
	}
}
