package compress

import (
	"bytes"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// packedSpecials are the bit patterns the packed wire must carry exactly:
// ±0, ±Inf, quiet and signalling NaNs of both signs with payloads, the
// smallest and largest denormals, the largest finite value and two ordinary
// ones.
var packedSpecials = []uint32{
	0x80000000, 0x00000000, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00001, 0x7f800001, 0xffbfffff,
	0x00000001, 0x807fffff, 0x7f7fffff, 0x3f800000, 0xc0490fdb,
}

// packedCases are the tensors of the round-trip test, by name, at length n.
func packedCases(n int) map[string][]float32 {
	rng := tensor.NewRNG(uint64(n) + 1)
	cases := map[string][]float32{
		"specials": make([]float32, n), "all zero": make([]float32, n), "all equal": make([]float32, n),
		"negative zeros": make([]float32, n), "denormals": make([]float32, n), "gradient-like": make([]float32, n),
		"ulp steps": make([]float32, n), "random bits": make([]float32, n),
	}
	for i := 0; i < n; i++ {
		cases["specials"][i] = math.Float32frombits(packedSpecials[(i+n)%len(packedSpecials)])
		cases["all equal"][i] = -3.25
		cases["negative zeros"][i] = math.Float32frombits(1 << 31)
		cases["denormals"][i] = math.Float32frombits(uint32(rng.Uint64()%(1<<23)) | uint32(i%2)<<31)
		cases["gradient-like"][i] = float32(rng.Uint64()%(1<<20))/(1<<24) - 0.03
		cases["ulp steps"][i] = math.Float32frombits(0x3f800000 + uint32(rng.Uint64()%8)) // a pull: W moved by a few ulp
		cases["random bits"][i] = math.Float32frombits(uint32(rng.Uint64()))
	}
	return cases
}

// TestPacked32RoundTripsEveryBit: a packed context's wire decodes to its
// input bit for bit — ±0, denormals, ±Inf, NaN payloads, all-equal,
// all-zero — at the lengths around a block and a tail byte; it is never
// longer than the raw wire, and where it would not be shorter it IS the
// raw wire; add and first-add leave what the raw wire of the same tensor
// leaves, a −0 first-added as +0.
func TestPacked32RoundTripsEveryBit(t *testing.T) {
	for _, n := range []int{1, 10, 48, 63, 64, 65, 1024} {
		for name, vals := range packedCases(n) {
			in := tensor.FromSlice(vals, n)
			rawWire := New(SchemeNone, []int{n}, Options{}).Compress(in)
			prefix := []byte{0xCA, 0xFE}
			out := NewExempt(SchemeThreeLC, []int{n}).CompressInto(in, append([]byte(nil), prefix...))
			if !bytes.Equal(out[:2], prefix) {
				t.Fatalf("%s n=%d: prefix clobbered", name, n)
			}
			wire := out[2:]
			switch {
			case len(wire) > len(rawWire):
				t.Fatalf("%s n=%d: %d bytes on the wire, the raw wire is %d", name, n, len(wire), len(rawWire))
			case len(wire) == len(rawWire) && !bytes.Equal(wire, rawWire):
				t.Fatalf("%s n=%d: a wire as long as the raw one is not the raw one (scheme byte %d)", name, n, wire[0])
			case len(wire) < len(rawWire) && Scheme(wire[0]) != SchemePacked32:
				t.Fatalf("%s n=%d: a shorter wire with scheme byte %d", name, n, wire[0])
			}
			got := tensor.New(n)
			got.Fill(7)
			if err := DecompressInto(wire, got); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(vals[i]) {
					t.Fatalf("%s n=%d: element %d decodes to %#x, was %#x", name, n, i, math.Float32bits(v), math.Float32bits(vals[i]))
				}
			}
			// Against what the raw wire does to the same destinations.
			acc := randTensor(uint64(n), n, 1)
			wantAdd, gotAdd := acc.Clone(), acc.Clone()
			wantFirst, gotFirst := acc.Clone(), acc.Clone()
			for _, err := range []error{
				DecompressAddInto(rawWire, wantAdd, 1), DecompressAddInto(wire, gotAdd, 1),
				DecompressFirstAddInto(rawWire, wantFirst), DecompressFirstAddInto(wire, gotFirst),
			} {
				if err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
			}
			for i := range vals {
				a, b := math.Float32bits(gotAdd.Data()[i]), math.Float32bits(wantAdd.Data()[i])
				if a != b && !(isNaN32(a) && isNaN32(b)) { // both operands NaN: the payload is the hardware's pick
					t.Fatalf("%s n=%d: add leaves %#x at %d, the raw wire %#x", name, n, a, i, b)
				}
				if a, b := math.Float32bits(gotFirst.Data()[i]), math.Float32bits(wantFirst.Data()[i]); a != b {
					t.Fatalf("%s n=%d: first-add leaves %#x at %d, the raw wire %#x", name, n, a, i, b)
				}
			}
			if name == "negative zeros" {
				// Its one plane packs whenever the tensor is looked at.
				if packs := n >= minPackedElems; packs != (Scheme(wire[0]) == SchemePacked32) {
					t.Fatalf("n=%d: −0 repeated travels with scheme byte %d", n, wire[0])
				}
				for i, v := range gotFirst.Data() {
					if math.Float32bits(v) != 0 {
						t.Fatalf("n=%d: first-add of a packed −0 left %#x at %d, want +0", n, math.Float32bits(v), i)
					}
				}
			}
		}
	}
}

func isNaN32(bits uint32) bool { return bits&0x7fffffff > 0x7f800000 }

// TestPacked32FallsBackToRaw: random bit patterns fill every plane, so the
// packed form is longer than float32 and the context sends the raw wire;
// the next tensor through the same context packs again. NewExempt under the
// float32 design, or for a tensor under minPackedElems values, is the raw
// context itself.
func TestPacked32FallsBackToRaw(t *testing.T) {
	const n = 1024
	ctx := NewExempt(SchemeInt8, []int{n})
	cases := packedCases(n)
	var buf []byte
	for step, c := range []struct {
		vals []float32
		want Scheme
	}{
		{cases["random bits"], SchemeNone}, {cases["ulp steps"], SchemePacked32},
		{cases["random bits"], SchemeNone}, {cases["all zero"], SchemePacked32},
	} {
		buf = ctx.CompressInto(tensor.FromSlice(c.vals, n), buf[:0])
		if Scheme(buf[0]) != c.want {
			t.Fatalf("step %d: scheme byte %d, want %v", step, buf[0], c.want)
		}
		if c.want == SchemeNone && len(buf) != 1+4*n {
			t.Fatalf("step %d: the raw fallback is %d bytes, want %d", step, len(buf), 1+4*n)
		}
	}
	if len(buf) != 1+16*8 {
		t.Fatalf("an all-zero tensor of %d is %d bytes packed, want a scheme byte and 16 headers", n, len(buf))
	}
	if s := NewExempt(SchemeNone, []int{n}).Scheme(); s != SchemeNone {
		t.Fatalf("the float32 design's exempt tensors travel as %v", s)
	}
	if s := NewExempt(SchemeInt8, []int{minPackedElems - 1}).Scheme(); s != SchemeNone {
		t.Fatalf("a tensor of %d values, too short to repay a look, travels as %v", minPackedElems-1, s)
	}
}

// FuzzPacked32Decode feeds arbitrary payloads to the three packed decoders
// at several destination lengths: none may panic, a refusal must leave the
// destination untouched (set and add; first-add zeroes it, its contract on
// error), the three agree on what is refused, and non-zero padding bits in
// a tail plane or a mask that disagrees with the length are refused.
func FuzzPacked32Decode(f *testing.F) {
	lengths := []int{1, 10, 48, 64, 65, 200}
	pack := func(vals []float32) []byte { return kernel.AppendPlanes32(nil, vals) }
	for _, n := range lengths {
		for _, vals := range packedCases(n) {
			f.Add(pack(vals))
		}
	}
	ten := pack(packedCases(10)["gradient-like"])
	padded := append([]byte(nil), ten...)
	padded[len(padded)-1] |= 0x80 // a bit past value 9 in the last plane
	f.Add(padded)
	masked := append([]byte(nil), ten...)
	masked[4] ^= 1 // one plane more or fewer than follow
	f.Add(masked)

	f.Fuzz(func(t *testing.T, payload []byte) {
		wire := append([]byte{byte(SchemePacked32)}, payload...)
		for _, n := range lengths {
			set, add, first := randTensor(1, n, 1), randTensor(1, n, 1), randTensor(1, n, 1)
			before := set.Clone()
			errSet := DecompressInto(wire, set)
			errAdd := DecompressAddInto(wire, add, 1)
			errFirst := DecompressFirstAddInto(wire, first)
			if (errSet == nil) != (errAdd == nil) || (errSet == nil) != (errFirst == nil) {
				t.Fatalf("n=%d: set says %v, add %v, first-add %v", n, errSet, errAdd, errFirst)
			}
			if errSet == nil {
				continue
			}
			for i, v := range before.Data() {
				if math.Float32bits(set.Data()[i]) != math.Float32bits(v) || math.Float32bits(add.Data()[i]) != math.Float32bits(v) {
					t.Fatalf("n=%d: refused (%v) after writing element %d", n, errSet, i)
				}
				if math.Float32bits(first.Data()[i]) != 0 {
					t.Fatalf("n=%d: a refused first-add left %#x at %d, want the zeroed sum", n, math.Float32bits(first.Data()[i]), i)
				}
			}
		}
		if bytes.Equal(payload, padded) || bytes.Equal(payload, masked) {
			if err := DecompressInto(wire, tensor.New(10)); err == nil {
				t.Fatal("a payload with a padding bit set or a mask/length mismatch was accepted")
			}
		}
	})
}
