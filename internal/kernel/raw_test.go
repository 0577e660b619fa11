package kernel

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"threelc/internal/tensor"
)

// rawSpecials are the bit patterns a raw payload must carry exactly: ±0,
// ±Inf, quiet and signalling NaNs of both signs, the smallest and largest
// denormals, the largest finite value and two ordinary ones.
var rawSpecials = []uint32{
	0x80000000, 0x00000000, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00001, 0x7f800001, 0xffbfffff,
	0x00000001, 0x807fffff, 0x7f7fffff, 0x3f800000, 0xc0490fdb,
}

const (
	rawGuardByte  = 0xA5
	rawGuardFloat = float32(-123456.75)
)

// guarded returns a copy of vals with one guard element on each side, and
// the view between the guards.
func guarded(vals []float32) (back, view []float32) {
	back = make([]float32, len(vals)+2)
	back[0], back[len(back)-1] = rawGuardFloat, rawGuardFloat
	copy(back[1:], vals)
	return back, back[1 : len(back)-1]
}

func guardsIntact(back []float32) bool {
	return back[0] == rawGuardFloat && back[len(back)-1] == rawGuardFloat
}

// checkRawKernels holds the four raw cores of every available tier to the
// scalar reference on one payload: vals on the wire off bytes into its
// buffer (a real payload sits one scheme byte in, so never 4-aligned),
// prev the destination an add finds and the stale content a get or a first
// add must overwrite. Put is byte-exact and get∘put the identity on bits;
// add matches up to the NaN-payload class; first-add is bit for bit the
// staged zero-then-add — one NaN operand at most, so no payload freedom —
// which a copy fails wherever the wire holds −0 or a signalling NaN. No
// core may touch a byte or a float outside its operands.
func checkRawKernels(t *testing.T, vals, prev []float32, off int) {
	t.Helper()
	n := len(vals)
	wantWire := make([]byte, 4*n)
	rawPutRange(wantWire, vals)
	wantAdd := append([]float32(nil), prev...)
	rawAddRange(wantAdd, wantWire)
	wantFirst := make([]float32, n)
	rawAddRange(wantFirst, wantWire)

	tierSweep(func(tier Tier) {
		wire := bytes.Repeat([]byte{rawGuardByte}, off+4*n+1)
		AppendRaw(wire[:off], vals) // the capacity is there: written in place
		payload := wire[off : off+4*n]
		if !bytes.Equal(payload, wantWire) {
			t.Fatalf("tier %v n=%d off=%d: put wrote % x, scalar % x", tier, n, off, payload, wantWire)
		}
		if !bytes.Equal(wire[:off], bytes.Repeat([]byte{rawGuardByte}, off)) || wire[off+4*n] != rawGuardByte {
			t.Fatalf("tier %v n=%d off=%d: put wrote outside its %d bytes", tier, n, off, 4*n)
		}

		back, got := guarded(prev)
		RawGet(got, payload)
		if i, ok := bitsEqual(got, vals); !ok || !guardsIntact(back) {
			t.Fatalf("tier %v n=%d off=%d: get∘put is not the identity at %d (guards intact: %v)", tier, n, off, i, guardsIntact(back))
		}

		back, got = guarded(prev)
		RawAdd(got, payload)
		if i, ok := nanClassEqual(got, wantAdd); !ok || !guardsIntact(back) {
			t.Fatalf("tier %v n=%d off=%d: add differs from scalar at %d: %x vs %x (guards intact: %v)", tier, n, off, i,
				math.Float32bits(got[i]), math.Float32bits(wantAdd[i]), guardsIntact(back))
		}

		back, got = guarded(prev)
		RawFirstAdd(got, payload)
		if i, ok := bitsEqual(got, wantFirst); !ok || !guardsIntact(back) {
			t.Fatalf("tier %v n=%d off=%d: first-add differs from zero-then-add at %d: %x vs %x, wire %x (guards intact: %v)", tier, n, off, i,
				math.Float32bits(got[i]), math.Float32bits(wantFirst[i]), math.Float32bits(vals[i]), guardsIntact(back))
		}
		if !bytes.Equal(payload, wantWire) {
			t.Fatalf("tier %v n=%d off=%d: a decoder wrote to its payload", tier, n, off)
		}
	})
}

// TestRawKernelsMatchScalar sweeps every length from 0 to 71 — each 32 /
// 8 / 1 tail of the asm loops — at byte offsets 0 to 3, once with the
// special bit patterns rotating through every position and once with
// ordinary values, against a destination that holds specials of its own.
func TestRawKernelsMatchScalar(t *testing.T) {
	rng := tensor.NewRNG(17)
	for n := 0; n <= 71; n++ {
		for off := 0; off < 4; off++ {
			special, ordinary, prev := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range special {
				special[i] = math.Float32frombits(rawSpecials[(i+n+off)%len(rawSpecials)])
				ordinary[i] = float32(rng.Uint64()%(1<<24))/(1<<20) - 8
				prev[i] = ordinary[i] * 3
				if i%5 == 2 {
					prev[i] = math.Float32frombits(rawSpecials[(2*i+n)%len(rawSpecials)])
				}
			}
			checkRawKernels(t, special, prev, off)
			checkRawKernels(t, ordinary, prev, off)
		}
	}
}

// TestRawViewIsAppendRaw: the view of a float slice is, byte for byte,
// what AppendRaw appends for it — specials included, at every length from
// 0 to 71 — and it aliases the floats, so a later write shows through. A
// host that is not little-endian gets nil.
func TestRawViewIsAppendRaw(t *testing.T) {
	for n := 0; n <= 71; n++ {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(rawSpecials[(i+n)%len(rawSpecials)])
		}
		view := RawView(vals)
		if !littleEndian || n == 0 {
			if view != nil {
				t.Fatalf("n=%d: RawView returned %d bytes, want nil (little-endian host: %v)", n, len(view), littleEndian)
			}
			continue
		}
		if want := AppendRaw(nil, vals); !bytes.Equal(view, want) {
			t.Fatalf("n=%d: view % x, AppendRaw % x", n, view, want)
		}
		vals[n-1] = math.Float32frombits(0xffc00001)
		if got := binary.LittleEndian.Uint32(view[4*n-4:]); got != 0xffc00001 {
			t.Fatalf("n=%d: a write to the floats reads %#x through the view, want 0xffc00001", n, got)
		}
	}
}

// TestSGDStepRawMatchesDelta: on every tier the sweep into a Raw sink
// leaves w and v as the sweep into a Delta sink does and writes, one byte
// into its wire, the bytes AppendRaw makes of that sweep's delta, and
// nothing outside them; so does the sweep into a Raw sink that is gs's own
// bytes (RawView), which writes each delta over the element it read —
// at every length from 0 to 67 (each 8 / 1 tail of the asm
// loop) and at 1M, over inputs that carry ±0, NaN and ±Inf, and at 1M
// once more through a record whose every third block is live.
func TestSGDStepRawMatchesDelta(t *testing.T) {
	rng := tensor.NewRNG(23)
	check := func(n int, live *Blocks) {
		t.Helper()
		w, v, gs := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Uint64()%(1<<24))/(1<<22) - 2
			v[i] = float32(rng.Uint64()%(1<<24))/(1<<26) - 0.125
			gs[i] = float32(rng.Uint64()%(1<<24))/(1<<24) - 0.5
			switch i % 7 {
			case 2:
				w[i] = math.Float32frombits(rawSpecials[(i+n)%len(rawSpecials)])
			case 5:
				gs[i] = math.Float32frombits(rawSpecials[(3*i+n)%len(rawSpecials)])
			case 6:
				v[i] = math.Float32frombits(rawSpecials[(5*i+n)%len(rawSpecials)])
			}
		}
		tierSweep(func(tier Tier) {
			dw, dv, delta := append([]float32(nil), w...), append([]float32(nil), v...), make([]float32, n)
			live.SGDStep(dw, dv, gs, Sink{Delta: delta}, 0.5, 1e-4, 0.9, 0.0004)
			want := append(AppendRaw([]byte{rawGuardByte}, delta), rawGuardByte)
			rw, rv := append([]float32(nil), w...), append([]float32(nil), v...)
			wire := bytes.Repeat([]byte{rawGuardByte}, 4*n+2)
			live.SGDStep(rw, rv, gs, Sink{Raw: wire[1 : 1+4*n]}, 0.5, 1e-4, 0.9, 0.0004)
			if !bytes.Equal(wire, want) {
				i := 0
				for wire[i] == want[i] {
					i++
				}
				t.Fatalf("tier %v n=%d live=%v: raw sweep wrote %x at byte %d, AppendRaw of the delta sweep %x", tier, n, live != nil, wire[i], i, want[i])
			}
			if i, ok := bitsEqual(rw, dw); !ok {
				t.Fatalf("tier %v n=%d: w differs from the delta sweep's at %d", tier, n, i)
			}
			if i, ok := bitsEqual(rv, dv); !ok {
				t.Fatalf("tier %v n=%d: v differs from the delta sweep's at %d", tier, n, i)
			}
			// The Raw sink over gs's own bytes, as a float32 job's pull is
			// its gradient sum: the same bytes, in place of the sum.
			aw, av, ag := append([]float32(nil), w...), append([]float32(nil), v...), append([]float32(nil), gs...)
			if over := RawView(ag); over != nil {
				live.SGDStep(aw, av, ag, Sink{Raw: over}, 0.5, 1e-4, 0.9, 0.0004)
				if !bytes.Equal(over, want[1:1+4*n]) {
					i := 0
					for over[i] == want[1+i] {
						i++
					}
					t.Fatalf("tier %v n=%d live=%v: the sweep over its own sum wrote %x at byte %d, AppendRaw of the delta sweep %x", tier, n, live != nil, over[i], i, want[1+i])
				}
				if i, ok := bitsEqual(aw, dw); !ok {
					t.Fatalf("tier %v n=%d: w of the sweep over its own sum differs from the delta sweep's at %d", tier, n, i)
				}
				if i, ok := bitsEqual(av, dv); !ok {
					t.Fatalf("tier %v n=%d: v of the sweep over its own sum differs from the delta sweep's at %d", tier, n, i)
				}
			}
		})
	}
	for n := 0; n <= 67; n++ {
		check(n, nil)
	}
	const big = 1 << 20
	check(big, nil)
	var live Blocks
	live.Reset()
	live.sized(big)
	for b := 0; b < len(live.stamp); b += 3 {
		live.stamp[b] = live.epoch
	}
	check(big, &live)
}

// TestRawFirstAddIsNotACopy states the one difference on its own: a −0 on
// the wire comes out of a first add as +0, on every tier, exactly as out
// of the zero-then-add it replaces; a get keeps the sign.
func TestRawFirstAddIsNotACopy(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	vals := make([]float32, 41) // one 32-block, one 8-block, one tail element
	for i := range vals {
		vals[i] = negZero
	}
	tierSweep(func(tier Tier) {
		payload := AppendRaw([]byte{0}, vals)[1:]
		got := make([]float32, len(vals))
		for i := range got {
			got[i] = 7
		}
		RawFirstAdd(got, payload)
		for i, v := range got {
			if math.Float32bits(v) != 0 {
				t.Fatalf("tier %v: first-add of −0 left %x at %d, want +0", tier, math.Float32bits(v), i)
			}
		}
		RawGet(got, payload)
		for i, v := range got {
			if math.Float32bits(v) != 1<<31 {
				t.Fatalf("tier %v: get of −0 left %x at %d, want −0", tier, math.Float32bits(v), i)
			}
		}
	})
}

// TestRawKernelsRejectLengthMismatch pins the caller-bug contract: the
// byte side is exactly 4 bytes per float or the call panics before
// anything moves.
func TestRawKernelsRejectLengthMismatch(t *testing.T) {
	for name, call := range map[string]func(dst []float32, src []byte){
		"get": RawGet, "add": RawAdd, "first-add": RawFirstAdd,
	} {
		for _, extra := range []int{-1, 1, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with %+d bytes did not panic", name, extra)
					}
				}()
				call(make([]float32, 3), make([]byte, 12+extra))
			}()
		}
	}
}

// FuzzRawF32 is checkRawKernels on arbitrary bit patterns: data is the
// payload and, reversed, the destination; off its byte offset.
func FuzzRawF32(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0x80}, uint8(1))                                     // −0
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0x80, 1, 0, 0x80, 0x7f}, 36), uint8(1)) // −0 and sNaN through a 32 + 8 + tail
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0x7f, 0x7f, 1, 0, 0, 0}, 20), uint8(3))
	f.Add(bytes.Repeat([]byte{0, 0, 0xc0, 0xff, 0, 0, 0x80, 0xff}, 17), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 4
		if n > 1<<12 {
			return
		}
		vals, prev := make([]float32, n), make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			prev[n-1-i] = math.Float32frombits(binary.BigEndian.Uint32(data[4*i:]))
		}
		checkRawKernels(t, vals, prev, int(off%4))
	})
}
