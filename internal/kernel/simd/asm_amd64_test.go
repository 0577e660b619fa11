package simd

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refQuantPack mirrors the scalar kernel's quantize→residual→pack loop
// over full quartic groups: two independent threshold compares (so NaN
// quantizes to the zero digit), residual via v - dq[q] with v first, and
// the quartic byte folded most-significant-digit-first.
func refQuantPack(buf []float32, out []byte, groups int, tpos, dqNeg, dqZero, dqPos float32) {
	for g := 0; g < groups; g++ {
		b := 0
		for k := 0; k < 5; k++ {
			v := buf[g*5+k]
			q := 1
			d := dqZero
			if v >= tpos {
				q = 2
				d = dqPos
			}
			if v <= -tpos {
				q = 0
				d = dqNeg
			}
			buf[g*5+k] = v - d
			b = b*3 + q
		}
		out[g] = byte(b)
	}
}

func TestQuantPackBlocksMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(7))
	type mcase struct{ tpos, dqNeg, dqZero, dqPos float32 }
	inf := float32(math.Inf(1))
	cases := []mcase{
		{0.5, -1.5, 0, 1.5},
		{1e-30, -2e-30, 0, 2e-30},
		{float32(math.NaN()), -1, 0, 1},
		{0.5, -inf, float32(math.NaN()), inf},
	}
	for _, mc := range cases {
		for _, blocks := range []int{1, 2, 3, 7} {
			n := blocks * 40
			buf := make([]float32, n)
			fillMixed(rng, buf)
			refBuf := append([]float32(nil), buf...)
			out := make([]byte, blocks*8)
			refOut := make([]byte, blocks*8)
			refQuantPack(refBuf, refOut, blocks*8, mc.tpos, mc.dqNeg, mc.dqZero, mc.dqPos)
			QuantPackBlocks(buf, out, blocks, mc.tpos, mc.dqNeg, mc.dqZero, mc.dqPos)
			for g := range out {
				if out[g] != refOut[g] {
					t.Fatalf("tpos=%v blocks=%d: byte %d = %d, want %d", mc.tpos, blocks, g, out[g], refOut[g])
				}
			}
			for i := range buf {
				if !eqf(buf[i], refBuf[i]) {
					t.Fatalf("tpos=%v blocks=%d: residual[%d] %x != %x (v=%x)", mc.tpos, blocks, i, math.Float32bits(buf[i]), math.Float32bits(refBuf[i]), math.Float32bits(refBuf[i]))
				}
			}
		}
	}
}

// TestQuantPackBlocksSkipMatchesScalar drives the all-zero-block skip: most
// blocks hold only values under the threshold (zeros of both signs,
// denormals), every seventh gets one element on or across it or a NaN, and
// the last case's NaN dqZero must keep the dense residual write everywhere.
func TestQuantPackBlocksSkipMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(11))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	quiet := []float32{0, math.Float32frombits(0x80000000), math.Float32frombits(1), -1e-20, 0.24}
	spikes := []float32{0.25, -0.25, math.Nextafter32(0.25, 0), 7, inf, -inf, nan, math.Float32frombits(0xffc00123)}
	for _, dq := range [][3]float32{{-0.5, 0, 0.5}, {-inf, nan, inf}} {
		const blocks = 64
		buf := make([]float32, blocks*40)
		for i := range buf {
			buf[i] = quiet[rng.Intn(len(quiet))]
		}
		for b := 0; b < blocks; b += 7 {
			buf[b*40+rng.Intn(40)] = spikes[rng.Intn(len(spikes))]
		}
		refBuf := append([]float32(nil), buf...)
		out, refOut := make([]byte, blocks*8), make([]byte, blocks*8)
		refQuantPack(refBuf, refOut, blocks*8, 0.25, dq[0], dq[1], dq[2])
		QuantPackBlocks(buf, out, blocks, 0.25, dq[0], dq[1], dq[2])
		for g := range out {
			if out[g] != refOut[g] {
				t.Fatalf("dqZero=%v: byte %d = %d, want %d", dq[1], g, out[g], refOut[g])
			}
		}
		for i := range buf {
			if !eqf(buf[i], refBuf[i]) {
				t.Fatalf("dqZero=%v: residual[%d] %x != %x", dq[1], i, math.Float32bits(buf[i]), math.Float32bits(refBuf[i]))
			}
		}
	}
}

func TestScaledLiteralsAsmMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	for _, m := range []float32{1.5, 0.25, float32(math.Inf(1)), float32(math.NaN()), math.Float32frombits(0x80000000)} {
		testAddLiterals(t, m)
	}
}

// tailLengths are the sizes the asm-vs-scalar sweeps cover: every length
// 0–100 (all block/tail splits of the 32- and 8-wide loops) plus 1M ± 7.
func tailLengths() []int {
	ns := []int{1<<20 - 7, 1 << 20, 1<<20 + 7}
	for n := 0; n <= 100; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestAccMaxAbsAsmMatchesScalar pins the AVX2 accumulate+|max| core
// against the scalar loop: bit-equal buffers (up to NaN payload) and a
// bit-equal maximum over every tail length, with the slices offset by one
// element so no load is 32-byte aligned, and inputs seeded with NaN, ±Inf,
// −0 and denormals. A NaN candidate must never win the max.
func TestAccMaxAbsAsmMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range tailLengths() {
		bufBack := make([]float32, n+1)
		inBack := make([]float32, n+1)
		buf, in := bufBack[1:], inBack[1:]
		fillMixed(rng, buf)
		fillMixed(rng, in)
		refBuf := append([]float32(nil), buf...)
		want := refAccMaxAbs(refBuf, in)
		got := AccMaxAbsAsm(buf, in)
		if got != got {
			t.Fatalf("n=%d: NaN won the max", n)
		}
		if math.Float32bits(want) != math.Float32bits(got) {
			t.Fatalf("n=%d: max %x != scalar %x", n, math.Float32bits(got), math.Float32bits(want))
		}
		for i := range buf {
			if !eqf(buf[i], refBuf[i]) {
				t.Fatalf("n=%d: buf[%d] %x != scalar %x", n, i, math.Float32bits(buf[i]), math.Float32bits(refBuf[i]))
			}
		}
	}
	// All-NaN input: the max stays at its +0 seed.
	buf := make([]float32, 41)
	in := make([]float32, 41)
	for i := range in {
		in[i] = float32(math.NaN())
	}
	if got := AccMaxAbsAsm(buf, in); math.Float32bits(got) != 0 {
		t.Fatalf("all-NaN input: max = %x, want +0", math.Float32bits(got))
	}
}

// TestMaxAbsAsmMatchesScalar pins the AVX2 read-only |max| core against
// the scalar loop over every tail length, on a slice offset by one element
// so no load is 32-byte aligned, with NaN, ±Inf, −0 and denormals mixed
// in: a bit-equal maximum, a NaN never winning, and buf left untouched.
func TestMaxAbsAsmMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range tailLengths() {
		back := make([]float32, n+1)
		buf := back[1:]
		fillMixed(rng, buf)
		before := append([]float32(nil), buf...)
		want := refMaxAbs(buf)
		got := MaxAbsAsm(buf)
		if got != got {
			t.Fatalf("n=%d: NaN won the max", n)
		}
		if math.Float32bits(want) != math.Float32bits(got) {
			t.Fatalf("n=%d: max %x != scalar %x", n, math.Float32bits(got), math.Float32bits(want))
		}
		for i := range buf {
			if math.Float32bits(buf[i]) != math.Float32bits(before[i]) {
				t.Fatalf("n=%d: buf[%d] written", n, i)
			}
		}
	}
	buf := make([]float32, 100)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	if got := MaxAbsAsm(buf[:41]); math.Float32bits(got) != 0 {
		t.Fatalf("all-NaN input: max = %x, want +0", math.Float32bits(got))
	}
	// NaN after the max in the same lane must not erase it.
	for p := range buf {
		buf[p] = -5
		if got := MaxAbsAsm(buf); got != 5 {
			t.Fatalf("NaN all around a -5 at %d: max = %v, want 5", p, got)
		}
		buf[p] = float32(math.NaN())
	}
}

// refFusedSGDStep mirrors the scalar kernel core exactly.
func refFusedSGDStep(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	var m float32
	for i := range v {
		old := w[i]
		g := gs[i]*gscale + wd*old
		vv := mom*v[i] + g
		v[i] = vv
		nw := old - lr*vv
		w[i] = nw
		sum := acc[i] + (nw - old)
		acc[i] = sum
		a := math.Float32frombits(math.Float32bits(sum) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}

// TestFusedSGDStepAsmMatchesScalar is the same sweep for the AVX2 SGD
// core: all four streams bit-equal to the scalar loop (up to NaN payload)
// and the returned max|acc| bit-equal, over every tail length, unaligned
// slices, nasty inputs, and coefficient sets including the gscale = 1
// identity and non-finite rates.
func TestFusedSGDStepAsmMatchesScalar(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(12))
	coeffs := [][4]float32{
		{0.5, 1e-4, 0.9, 0.04},
		{1, 1e-4, 0.9, 0.0004},
		{1.0 / 3.0, 0, 0, 1},
		{0.5, float32(math.Inf(1)), 0.9, float32(math.NaN())},
	}
	for ci, c := range coeffs {
		for _, n := range tailLengths() {
			if n > 100 && ci > 0 {
				continue // the 1M sweep once is enough
			}
			var got, want [4][]float32
			for s := range got {
				back := make([]float32, n+1)
				got[s] = back[1:]
				fillMixed(rng, got[s])
				want[s] = append([]float32(nil), got[s]...)
			}
			wantM := refFusedSGDStep(want[0], want[1], want[2], want[3], c[0], c[1], c[2], c[3])
			gotM := SGDStepAsm(got[0], got[1], got[2], got[3], c[0], c[1], c[2], c[3])
			if gotM != gotM {
				t.Fatalf("coeffs %d n=%d: NaN won the max", ci, n)
			}
			if math.Float32bits(wantM) != math.Float32bits(gotM) {
				t.Fatalf("coeffs %d n=%d: max %x != scalar %x", ci, n, math.Float32bits(gotM), math.Float32bits(wantM))
			}
			for s, name := range []string{"w", "v", "gs", "acc"} {
				for i := range got[s] {
					if !eqf(got[s][i], want[s][i]) {
						t.Fatalf("coeffs %d n=%d: %s[%d] %x != scalar %x", ci, n, name, i,
							math.Float32bits(got[s][i]), math.Float32bits(want[s][i]))
					}
				}
			}
		}
	}
}

// TestPlanesAsmMatchesDefinition holds the two bit-plane cores to the
// format's definition, one bit at a time: base is the largest magnitude,
// mask the OR of the transformed words sign | (base − magnitude), plane j's
// bit k is bit j of value k's word, and only the mask's planes are written,
// cut to pb bytes and to the valid bits — and the inverse undoes it to the
// bit, for ordinary values, the nasty ones, all-equal blocks, full blocks
// and tails, and for arbitrary plane bytes (a distance above base wraps
// within 31 bits).
func TestPlanesAsmMatchesDefinition(t *testing.T) {
	if !Detect().AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		var src [64]float32
		switch trial % 4 {
		case 0:
			fillMixed(rng, src[:])
		case 1:
			for i := range src {
				src[i] = math.Float32frombits(rng.Uint32())
			}
		case 2:
			for i := range src {
				src[i] = 1 + float32(rng.Intn(1<<12))/(1<<20)
			}
		default:
			for i := range src {
				src[i] = -0.75
			}
		}
		n := 64 // values in the block; the rest is padding, cut by valid
		if trial%8 >= 4 {
			n = 1 + rng.Intn(63)
			for i := n; i < 64; i++ {
				src[i] = src[0]
			}
		}
		pb, valid := (n+7)/8, ^uint64(0)>>(64-n)
		var wantBase, wantMask uint32
		for _, v := range src {
			wantBase = max(wantBase, math.Float32bits(v)&0x7fffffff)
		}
		var words [64]uint32
		for k, v := range src {
			u := math.Float32bits(v)
			words[k] = u&0x80000000 | (wantBase - u&0x7fffffff)
			wantMask |= words[k]
		}
		want := binary.LittleEndian.AppendUint32(nil, wantBase)
		want = binary.LittleEndian.AppendUint32(want, wantMask)
		var rank [32]byte
		sent := 0
		for j := range rank {
			rank[j] = 0x80 | byte(rng.Intn(128))
			if wantMask>>j&1 == 0 {
				continue
			}
			rank[j] = byte(sent)
			sent++
			var plane uint64
			for k := 0; k < n; k++ {
				plane |= uint64(words[k]>>j&1) << k
			}
			want = append(want, binary.LittleEndian.AppendUint64(nil, plane)[:pb]...)
		}
		out := make([]byte, 16+31*pb+1)
		out[len(out)-1] = 0xA5
		if got := PlanesPackAsm(&src, out[:len(out)-1], pb, valid); got != len(want) || !bytes.Equal(out[:got], want) {
			t.Fatalf("trial %d n=%d: pack wrote %d bytes % x, want %d bytes % x", trial, n, got, out[:min(got, len(out))], len(want), want)
		}
		if out[len(out)-1] != 0xA5 {
			t.Fatalf("trial %d n=%d: pack wrote past the %d bytes it may", trial, n, len(out)-1)
		}

		// The inverse reads 8 bytes a row for 32 rows: what follows the
		// planes sent is noise it must not use.
		planes := make([]byte, 8+31*pb)
		rng.Read(planes)
		copy(planes, want[8:])
		var raw [256]byte
		PlanesUnpackAsm(planes, &rank, pb, wantBase, &raw)
		for k := 0; k < n; k++ {
			if got := binary.LittleEndian.Uint32(raw[4*k:]); got != math.Float32bits(src[k]) {
				t.Fatalf("trial %d n=%d: unpack gives %#x at %d, want %#x", trial, n, got, k, math.Float32bits(src[k]))
			}
		}

		// Arbitrary planes under the same mask and an arbitrary base.
		rng.Read(planes)
		base := rng.Uint32() & 0x7fffffff
		PlanesUnpackAsm(planes, &rank, pb, base, &raw)
		for k := 0; k < n; k++ {
			var x uint32
			for j := range rank {
				if rank[j] < 0x80 {
					x |= uint32(planes[int(rank[j])*pb+k/8]>>(k%8)&1) << j
				}
			}
			want := x&0x80000000 | (base-x&0x7fffffff)&0x7fffffff
			if got := binary.LittleEndian.Uint32(raw[4*k:]); got != want {
				t.Fatalf("trial %d n=%d: unpack of arbitrary planes gives %#x at %d, want %#x", trial, n, got, k, want)
			}
		}
	}
}
