package kernel

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"threelc/internal/tensor"
)

// tierSweep runs fn once under every kernel tier this CPU/build supports,
// restoring the entry tier afterwards. Fuzz callbacks run serially within
// a worker process, so the global SetTier swap is safe here.
func tierSweep(fn func(tier Tier)) {
	prev := ActiveTier()
	defer SetTier(prev)
	for _, tier := range AvailableTiers() {
		SetTier(tier)
		fn(tier)
	}
}

// nanClassEqual is bitsEqual relaxed by the one cross-tier exception the
// simd package documents: when BOTH operands of an accumulate are NaN, the
// surviving payload is whichever operand the hardware add kept, which can
// differ between code shapes. Slots that are NaN in both buffers therefore
// compare equal regardless of payload; everything else must be
// bit-identical.
func nanClassEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// FuzzFusedVsStaged is the differential fuzz target behind the fused
// kernels' bit-compatibility guarantee: for arbitrary tensor contents
// (including NaN/Inf bit patterns), sparsity multipliers, and both ZRE
// settings, the fused compress path must produce byte-identical wires and
// bit-identical residual buffers (up to NaN payload class) to the staged
// quant+encode composition — across two accumulating steps, under EVERY
// available kernel tier — and the fused
// LUT decoder must reproduce the staged decode bit-exactly.
func FuzzFusedVsStaged(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0}, uint8(0), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(128), false)
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0x7f, 0x7f}, 9), uint8(255), true) // large finite values
	f.Add(bytes.Repeat([]byte{0, 0, 0xc0, 0x7f}, 7), uint8(17), true)        // NaNs
	// The asm tier's all-zero-block skip: one spike (1.0) in 130 zeros, and
	// a sparse tensor — a spike every 97 elements, signs alternating — whose
	// 40-element blocks are mostly, not all, untouched.
	spike := make([]byte, 4*131)
	copy(spike[4*77:], []byte{0, 0, 0x80, 0x3f})
	f.Add(spike, uint8(192), true)
	sparse := make([]byte, 4*1003)
	for i := 0; i < 1003; i += 97 {
		copy(sparse[4*i:], []byte{0, 0, 0x80, 0x3f | byte(i&1)<<7})
	}
	f.Add(sparse, uint8(192), true)
	f.Add(sparse, uint8(0), false)
	// One run long enough for the long-run token's uvarint to take a
	// second byte (14·128+1 groups), closed by a spike, and the same run
	// reaching the end of the tensor.
	long := make([]byte, 4*(5*(14*128+1)+3))
	f.Add(append([]byte(nil), long...), uint8(192), true)
	copy(long[len(long)-8:], []byte{0, 0, 0x80, 0x3f})
	f.Add(long, uint8(192), true)

	f.Fuzz(func(t *testing.T, data []byte, sByte uint8, zre bool) {
		n := len(data) / 4
		if n == 0 || n > 1<<14 {
			return
		}
		tierSweep(func(tier Tier) {
			fuzzFusedVsStagedBody(t, data, sByte, zre, n, tier)
		})
	})
}

func fuzzFusedVsStagedBody(t *testing.T, data []byte, sByte uint8, zre bool, n int, tier Tier) {
	// Sparsity in [1, 2): the full legal range of Eq. 1.
	s := 1 + float64(sByte)/256

	vals := make([]float32, n)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	in := tensor.FromSlice(append([]float32(nil), vals...), n)

	accStaged := tensor.New(n)
	buf := make([]float32, n)

	for step := 0; step < 2; step++ {
		wantWire, wantM := stagedTernary(accStaged, in, s, zre)

		m := float64(AccumulateMaxAbs(buf, in.Data())) * s
		if math.Float32bits(float32(m)) != math.Float32bits(wantM) {
			t.Fatalf("step %d: fused scale %v != staged %v", step, float32(m), wantM)
		}

		wire := EncodeTernary(buf, m, zre, nil)
		if !bytes.Equal(wire, wantWire) {
			t.Fatalf("tier %v step %d: fused wire != staged wire (%d vs %d bytes)", tier, step, len(wire), len(wantWire))
		}
		if i, ok := nanClassEqual(buf, accStaged.Data()); !ok {
			t.Fatalf("tier %v step %d: residual differs at %d", tier, step, i)
		}

		// Decode side: the fused LUT decoder must agree with the
		// staged expand+scaled-decode bit for bit. Skip wires the
		// staged decoder itself rejects (garbage values can quantize
		// outside the ternary range and produce undecodable bytes).
		want, errStaged := stagedDecode(wantWire, zre, wantM, n)
		got := make([]float32, n)
		errFused := DecodeTernary(wantWire, zre, wantM, got)
		if (errStaged == nil) != (errFused == nil) {
			t.Fatalf("tier %v step %d: staged decode err=%v, fused err=%v", tier, step, errStaged, errFused)
		}
		if errStaged == nil {
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("tier %v step %d: decode differs at %d: %x vs %x",
					tier, step, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// FuzzBlockIndexVsFullScan is the differential fuzz target behind the block
// index (BlockMax): pass 2 consulting the index pass 1 recorded — after
// AccumulateMaxAbs and after the pull's FusedSGDStep — must emit
// the wire of the index-free full scan byte for byte and leave its
// residuals bit for bit, over two accumulating steps, under every kernel
// tier. (A skipped block is not rewritten where the scalar full scan
// writes v − (+0), but pass 1's add has already quieted any signalling
// NaN, the one value that subtraction would change.) The input is records
// of (offset, run length, value) written into a zero tensor of up to six
// blocks, so digits cluster or scatter as the records say, and n need not
// be a multiple of the block or of the 5-element group.
func FuzzBlockIndexVsFullScan(f *testing.F) {
	rec := func(off uint16, run uint8, bits uint32) []byte {
		r := binary.LittleEndian.AppendUint16(nil, off)
		return binary.LittleEndian.AppendUint32(append(r, run), bits)
	}
	cat := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	f.Add([]byte(nil), uint16(3*BlockElems+3), uint8(192), true) // m == 0
	// Clustered: one run of ones in the third block over scattered small
	// values that never quantize.
	f.Add(cat(rec(2*BlockElems+17, 200, 0x3f800000), rec(5, 1, 0x3a83126f), rec(4000, 1, 0xba83126f)), uint16(4*BlockElems+2), uint8(192), true)
	f.Add(cat(rec(2*BlockElems+17, 200, 0x3f800000), rec(5, 1, 0x3a83126f)), uint16(4*BlockElems+2), uint8(0), false)
	// Scattered: a spike in every block.
	f.Add(cat(rec(3, 1, 0x3f800000), rec(BlockElems+600, 1, 0xbf800000), rec(2*BlockElems+1279, 1, 0x3f800000)), uint16(3*BlockElems), uint8(100), true)
	// NaN (quiet and signalling) and −0 in blocks the index skips.
	f.Add(cat(rec(10, 40, 0x3f800000), rec(BlockElems+3, 5, 0x7fc00000), rec(2*BlockElems, 3, 0x7f800001), rec(3*BlockElems-1, 9, 0x80000000)), uint16(3*BlockElems+11), uint8(192), true)
	// max|buf|·s past MaxFloat32: float32(M) is +Inf, M·0 is NaN and no
	// block may be skipped.
	f.Add(cat(rec(7, 1, 0x7f7fffff), rec(BlockElems+9, 3, 0x3f800000)), uint16(2*BlockElems+4), uint8(128), true)

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, sByte uint8, zre bool) {
		n := int(nRaw)%(6*BlockElems) + 1
		s := 1 + float64(sByte)/256
		in := make([]float32, n)
		for ; len(data) >= 7; data = data[7:] {
			off := int(binary.LittleEndian.Uint16(data)) % n
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[3:]))
			for i := off; i < min(off+max(int(data[2]), 1), n); i++ {
				in[i] = v
			}
		}
		tierSweep(func(tier Tier) {
			fuzzBlockIndexBody(t, tier, in, s, zre)
		})
	})
}

func fuzzBlockIndexBody(t *testing.T, tier Tier, in []float32, s float64, zre bool) {
	n := len(in)
	full := make([]float32, n)
	bufs := [2][]float32{make([]float32, n), make([]float32, n)}
	var idx [2]BlockMax
	// The pull's pass 1: with w, v = 0, gs = in, gscale = −1 and lr = 1 the
	// sweep folds w_new − w_old = in (exactly, for finite in) into acc.
	sgd := func(x *BlockMax, acc []float32) float32 {
		w, v := make([]float32, n), make([]float32, n)
		return x.FusedSGDStep(w, v, in, acc, -1, 0, 0, 1)
	}
	fullSGD := make([]float32, n)
	for step := 0; step < 2; step++ {
		m := float64(AccumulateMaxAbs(full, in)) * s
		want := EncodeTernary(full, m, zre, nil)
		var none *BlockMax
		mSGD := float64(sgd(none, fullSGD)) * s
		wantSGD := EncodeTernary(fullSGD, mSGD, zre, nil)
		for k := range idx {
			var mk float64
			if k == 0 {
				mk = float64(idx[k].AccumulateMaxAbs(bufs[k], in)) * s
			} else {
				mk = float64(sgd(&idx[k], bufs[k])) * s
			}
			ref, refBuf, refM := want, full, m
			if k == 1 {
				ref, refBuf, refM = wantSGD, fullSGD, mSGD
			}
			if math.Float64bits(mk) != math.Float64bits(refM) {
				t.Fatalf("tier %v step %d form %d: indexed scale %v != full scan %v", tier, step, k, mk, refM)
			}
			got := idx[k].EncodeTernary(bufs[k], mk, zre, nil)
			if !bytes.Equal(got, ref) {
				t.Fatalf("tier %v step %d form %d n=%d: indexed wire (%d B) != full scan (%d B)", tier, step, k, n, len(got), len(ref))
			}
			if i, ok := bitsEqual(bufs[k], refBuf); !ok {
				t.Fatalf("tier %v step %d form %d: residual[%d] %08x != full scan %08x", tier, step, k, i,
					math.Float32bits(bufs[k][i]), math.Float32bits(refBuf[i]))
			}
		}
	}
}

// longRunFuzzSeeds start the decode fuzzers at the long-run token: valid
// for the two destination sizes (3 and 820 groups), then cut short (as the
// last byte, and mid-uvarint), a uvarint of six bytes, an expansion that
// overflows a 32-bit int, and one that only overruns the tensor.
var longRunFuzzSeeds = [][]byte{
	{244},
	{255, 57, 248, 121},
	{121, 255},
	{255, 0x80},
	{255, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	{255, 0xff, 0xff, 0xff, 0xff, 0x7f},
	{255, 58, 121, 121, 121, 121, 121, 121, 121, 121, 121},
}

// FuzzDecodeTernaryAdd feeds arbitrary bytes to the fused
// decode-accumulate kernels: untrusted payloads may error but must never
// panic, and — stronger than the decode-into contract — a rejected
// payload must leave the accumulator bit-identical to its prior state.
// Accepted payloads must accumulate bit-identically to decode-then-add.
func FuzzDecodeTernaryAdd(f *testing.F) {
	f.Add([]byte{121, 121, 121}, uint32(0x3f800000), true)
	f.Add([]byte{255, 0, 243}, uint32(0x7fc00000), true) // runs + NaN scale
	f.Add([]byte{242, 121}, uint32(0), false)
	f.Add([]byte{250, 250, 250, 7}, uint32(0xbf000000), true)
	for _, body := range longRunFuzzSeeds {
		f.Add(body, uint32(0x3f800000), true)
	}

	small := make([]float32, 13)
	big := make([]float32, scaledLUTMinElems+2)
	snapBuf := make([]float32, len(big))
	tmpBuf := make([]float32, len(big))
	f.Fuzz(func(t *testing.T, body []byte, mBits uint32, zre bool) {
		m := math.Float32frombits(mBits)
		tierSweep(func(Tier) {
			for _, dst := range [][]float32{small, big} {
				for i := range dst {
					dst[i] = float32(i%7) - 3
				}
				snap := snapBuf[:len(dst)]
				copy(snap, dst)

				want := tmpBuf[:len(dst)]
				errRef := DecodeTernary(body, zre, m, want)
				err := DecodeTernaryAdd(body, zre, m, dst)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("decode err=%v, decode-add err=%v", errRef, err)
				}
				if err != nil {
					if i, ok := bitsEqual(dst, snap); !ok {
						t.Fatalf("rejected payload corrupted accumulator at %d", i)
					}
				} else {
					for i := range snap {
						snap[i] += want[i]
					}
					if i, ok := bitsEqual(dst, snap); !ok {
						t.Fatalf("decode-add differs from decode-then-add at %d", i)
					}
				}
			}
		})
	})
}

// FuzzDecodeTernary feeds arbitrary bytes to the fused decoder: untrusted
// network payloads may error but must never panic, in any destination
// size, on both sides of the ScaledLUT threshold.
func FuzzDecodeTernary(f *testing.F) {
	f.Add([]byte{121, 121, 121}, uint32(0x3f800000), true)
	f.Add([]byte{255, 0, 243}, uint32(0x7fc00000), true) // runs + NaN scale
	f.Add([]byte{242, 121}, uint32(0), false)
	for _, body := range longRunFuzzSeeds {
		f.Add(body, uint32(0x3f800000), true)
	}

	small := make([]float32, 13)
	big := make([]float32, scaledLUTMinElems+2)
	f.Fuzz(func(t *testing.T, body []byte, mBits uint32, zre bool) {
		m := math.Float32frombits(mBits)
		tierSweep(func(Tier) {
			_ = DecodeTernary(body, zre, m, small)
			_ = DecodeTernary(body, zre, m, big)
		})
	})
}
