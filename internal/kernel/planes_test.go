package kernel

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"threelc/internal/tensor"
)

// refPlanesPack is the packed format written the slow way, one bit at a
// time straight from its description: the reference AppendPlanes32's word
// transpose is held to, byte for byte.
func refPlanesPack(vals []float32) []byte {
	var out []byte
	for len(vals) > 0 {
		blk := vals[:min(len(vals), PlaneBlock)]
		vals = vals[len(blk):]
		var base uint32
		for _, v := range blk {
			base = max(base, math.Float32bits(v)&0x7fffffff)
		}
		t := make([]uint32, len(blk))
		var mask uint32
		for i, v := range blk {
			u := math.Float32bits(v)
			t[i] = u&0x80000000 | (base - u&0x7fffffff)
			mask |= t[i]
		}
		out = binary.LittleEndian.AppendUint32(out, base)
		out = binary.LittleEndian.AppendUint32(out, mask)
		for j := 0; j < 32; j++ {
			if mask>>j&1 == 0 {
				continue
			}
			plane := make([]byte, (len(blk)+7)/8)
			for k, x := range t {
				plane[k/8] |= byte(x>>j&1) << (k % 8)
			}
			out = append(out, plane...)
		}
	}
	return out
}

// refPlanesUnpack reads n values back out of a well-formed packed payload
// the slow way, one bit at a time straight from the format's description:
// the reference the packed wire is held to be lossless against. It shares
// no code with the kernel's unpack.
func refPlanesUnpack(payload []byte, n int) []float32 {
	var out []float32
	for len(out) < n {
		size := min(n-len(out), PlaneBlock)
		base := binary.LittleEndian.Uint32(payload)
		mask := binary.LittleEndian.Uint32(payload[4:])
		payload = payload[8:]
		t := make([]uint32, size)
		for j := 0; j < 32; j++ {
			if mask>>j&1 == 0 {
				continue
			}
			for k := range t {
				t[k] |= uint32(payload[k/8]>>(k%8)&1) << j
			}
			payload = payload[(size+7)/8:]
		}
		for _, x := range t {
			out = append(out, math.Float32frombits(x&0x80000000|(base-x&0x7fffffff)&0x7fffffff))
		}
	}
	return out
}

// checkPlanes holds pack and both unpack destinations of every available
// tier to the reference packer and unpacker and to the raw wire on one
// tensor: the packed bytes are the reference's, written in place off bytes
// into a guarded buffer; the reference unpack of them is vals to the bit,
// NaN payloads and −0 included; add and first-add leave in prev what RawAdd
// and RawFirstAdd of the same values leave on that tier, bit for bit.
func checkPlanes(t *testing.T, vals, prev []float32, off int) {
	t.Helper()
	n := len(vals)
	want := refPlanesPack(vals)
	if len(want) > planesMaxLen(n) {
		t.Fatalf("n=%d: reference packs to %d bytes, planesMaxLen says at most %d", n, len(want), planesMaxLen(n))
	}
	if i, ok := bitsEqual(refPlanesUnpack(want, n), vals); !ok {
		t.Fatalf("n=%d: reference unpack∘pack is not the identity at %d", n, i)
	}
	raw := make([]byte, 4*n)
	rawPutRange(raw, vals)

	tierSweep(func(tier Tier) {
		wantAdd := append([]float32(nil), prev...)
		RawAdd(wantAdd, raw)
		wantFirst := append([]float32(nil), prev...)
		RawFirstAdd(wantFirst, raw)

		buf := bytes.Repeat([]byte{rawGuardByte}, off+planesMaxLen(n)+7+1)
		wire := AppendPlanes32(buf[:off], vals)
		if len(wire) > 0 && &wire[0] != &buf[0] {
			t.Fatalf("tier %v n=%d: pack reallocated a buffer that had the worst case free", tier, n)
		}
		payload := wire[off:]
		if !bytes.Equal(payload, want) {
			t.Fatalf("tier %v n=%d off=%d: pack wrote % x, reference % x", tier, n, off, payload, want)
		}
		if !bytes.Equal(buf[:off], bytes.Repeat([]byte{rawGuardByte}, off)) || buf[len(buf)-1] != rawGuardByte {
			t.Fatalf("tier %v n=%d off=%d: pack wrote outside its buffer", tier, n, off)
		}

		back, got := guarded(prev)
		if err := Planes32Add(got, payload); err != nil {
			t.Fatalf("tier %v n=%d: add: %v", tier, n, err)
		}
		if i, ok := bitsEqual(got, wantAdd); !ok || !guardsIntact(back) {
			t.Fatalf("tier %v n=%d off=%d: add differs from the raw add at %d: %x vs %x", tier, n, off, i,
				math.Float32bits(got[i]), math.Float32bits(wantAdd[i]))
		}
		back, got = guarded(prev)
		if err := Planes32FirstAdd(got, payload); err != nil {
			t.Fatalf("tier %v n=%d: first-add: %v", tier, n, err)
		}
		if i, ok := bitsEqual(got, wantFirst); !ok || !guardsIntact(back) {
			t.Fatalf("tier %v n=%d off=%d: first-add differs from the raw first-add at %d: %x vs %x", tier, n, off, i,
				math.Float32bits(got[i]), math.Float32bits(wantFirst[i]))
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("tier %v n=%d: a decoder wrote to its payload", tier, n)
		}
	})
}

// TestPlanesMatchReference sweeps every length from 0 to 131 — empty, each
// tail byte count, one and two full blocks and their tails — and 1 024,
// with the special bit patterns rotating through every position, with
// ordinary values, with a smooth ramp (few planes) and with one value
// repeated (none), against a destination that holds specials of its own.
func TestPlanesMatchReference(t *testing.T) {
	rng := tensor.NewRNG(23)
	lengths := []int{1024}
	for n := 0; n <= 131; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		special, ordinary, ramp, same, prev := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range special {
			special[i] = math.Float32frombits(rawSpecials[(i+n)%len(rawSpecials)])
			ordinary[i] = float32(rng.Uint64()%(1<<24))/(1<<20) - 8
			ramp[i] = 1 + float32(i)/4096
			same[i] = -0.75
			prev[i] = ordinary[i] * 3
			if i%5 == 2 {
				prev[i] = math.Float32frombits(rawSpecials[(2*i+n)%len(rawSpecials)])
			}
		}
		for _, vals := range [][]float32{special, ordinary, ramp, same, make([]float32, n)} {
			checkPlanes(t, vals, prev, n%4)
		}
		if packed, want := len(refPlanesPack(same)), planeHeader*((n+63)/64)+signPlaneBytes(n); packed != want {
			t.Fatalf("n=%d: one negative value repeated packs to %d bytes, want %d: headers and sign planes only", n, packed, want)
		}
	}
}

// signPlaneBytes is what one plane a block takes over n values.
func signPlaneBytes(n int) int {
	return n/PlaneBlock*8 + (n%PlaneBlock+7)/8
}

// planesUntouched runs both unpack entries on a payload that must be
// refused and fails if either of them accepts it or writes to dst.
func planesUntouched(t *testing.T, name string, payload []byte, n int) {
	t.Helper()
	for mode, call := range []func([]float32, []byte) error{Planes32Add, Planes32FirstAdd} {
		back, dst := guarded(make([]float32, n))
		for i := range dst {
			dst[i] = rawGuardFloat
		}
		if err := call(dst, payload); err == nil {
			t.Errorf("%s: mode %d accepted it", name, mode)
		}
		for i, v := range back {
			if v != rawGuardFloat {
				t.Fatalf("%s: mode %d refused it after writing dst[%d]", name, mode, i-1)
			}
		}
	}
}

// TestPlanesRefuseMalformed: a payload is refused as a whole, before dst
// is touched, when it is cut short or overlong, when a mask names more or
// fewer planes than follow, when a base is not a magnitude, when a tail
// plane has a bit set past its last value, and when it is well formed for
// another length.
func TestPlanesRefuseMalformed(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, n := range []int{1, 10, 48, 63, 64, 65, 200} {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = -1 - float32(rng.Uint64()%(1<<20))/(1<<10) // negative: a sign plane in every block
		}
		good := AppendPlanes32(nil, vals)
		mut := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
		for cut := 0; cut < len(good); cut++ {
			planesUntouched(t, "truncated", good[:cut], n)
		}
		planesUntouched(t, "one byte longer", append(append([]byte(nil), good...), 0), n)
		planesUntouched(t, "a mask with one plane more", mut(func(p []byte) []byte {
			mask := binary.LittleEndian.Uint32(p[4:])
			binary.LittleEndian.PutUint32(p[4:], mask|(^mask&-^mask))
			return p
		}), n)
		planesUntouched(t, "a mask with one plane fewer", mut(func(p []byte) []byte {
			mask := binary.LittleEndian.Uint32(p[4:])
			binary.LittleEndian.PutUint32(p[4:], mask&(mask-1))
			return p
		}), n)
		planesUntouched(t, "a negative base", mut(func(p []byte) []byte { p[3] |= 0x80; return p }), n)
		planesUntouched(t, "another length", good, n+64)
		if n > 8 {
			planesUntouched(t, "another length", good, n-8)
		}
		if pad := n % 8; pad != 0 {
			planesUntouched(t, "a padding bit", mut(func(p []byte) []byte { p[len(p)-1] |= 0x80; return p }), n)
			if n < PlaneBlock {
				first := planeHeader + (n+7)/8 - 1 // last byte of the first plane
				planesUntouched(t, "a padding bit in the first plane", mut(func(p []byte) []byte { p[first] |= 1 << pad; return p }), n)
			}
		}
	}
	planesUntouched(t, "bytes for an empty tensor", []byte{0}, 0)
}

// FuzzPlanes32 reads data both ways. As values it is checkPlanes on
// arbitrary bit patterns, data reversed the destination. As a payload for
// n values it must be refused with dst untouched or accepted — and an
// accepted payload must first-add what the raw wire of its reference
// unpack first-adds, and that tensor must pack and unpack to itself,
// whether or not the payload was the canonical spelling.
func FuzzPlanes32(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0x80}, uint8(1))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0x80, 1, 0, 0x80, 0x7f}, 36), uint8(72))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0x7f, 0x7f, 1, 0, 0, 0}, 32), uint8(64))
	f.Add(AppendPlanes32(nil, []float32{1, 1.5, -2, 0, 3, 1e-40, 7, 8, 9, 10}), uint8(10))
	f.Add(AppendPlanes32(nil, make([]float32, 65)), uint8(65))

	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		if len(data) > 1<<14 {
			return
		}
		n := len(data) / 4
		vals, prev := make([]float32, n), make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			prev[n-1-i] = math.Float32frombits(binary.BigEndian.Uint32(data[4*i:]))
		}
		checkPlanes(t, vals, prev, int(count%4))

		back, dst := guarded(make([]float32, int(count)))
		for i := range dst {
			dst[i] = rawGuardFloat
		}
		if err := Planes32FirstAdd(dst, data); err != nil {
			for i, v := range back {
				if v != rawGuardFloat {
					t.Fatalf("refused (%v) after writing dst[%d]", err, i-1)
				}
			}
			return
		}
		if !guardsIntact(back) {
			t.Fatal("first-add wrote outside dst")
		}
		decoded := refPlanesUnpack(data, len(dst))
		want := make([]float32, len(decoded))
		RawFirstAdd(want, AppendRaw(nil, decoded))
		if i, ok := bitsEqual(dst, want); !ok {
			t.Fatalf("an accepted payload first-adds %x at %d, the raw wire of its reference unpack %x", math.Float32bits(dst[i]), i, math.Float32bits(want[i]))
		}
		if i, ok := bitsEqual(refPlanesUnpack(AppendPlanes32(nil, decoded), len(decoded)), decoded); !ok {
			t.Fatalf("an accepted payload's tensor does not round-trip at %d", i)
		}
	})
}
