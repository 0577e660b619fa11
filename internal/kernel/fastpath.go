package kernel

import (
	"encoding/binary"
	"math"

	"threelc/internal/encode"
	"threelc/internal/kernel/simd"
)

// Asm-tier forms of the decode-add loop and the packed encode path. Each
// mirrors its scalar counterpart byte-for-byte on the wire and
// bit-for-bit on floats (up to NaN payloads, see package simd): the fast
// paths only regroup WHICH loop processes each wire byte, never the
// per-element operations or their order.

// litCoreAfter is how many consecutive literal groups the asm-tier
// decode-add loop applies inline before handing the rest of the stretch
// to the assembly literal core. The call into the core costs more than a few
// rows' adds, and on the wires 3LC actually produces — isolated literal
// groups between zero runs — nearly every stretch is that short (calling
// the core for each measured ~40 % slower than the scalar tier there); a
// stretch that has already run this long is likely a dense region, where
// the core's vector row loads win.
const litCoreAfter = 3

// addScaledLits is the asm-tier addScaled: the first
// litCoreAfter literal bytes of a stretch (and partial tail groups) take
// the inline row apply, the rest of a longer stretch the assembly literal
// core up to the end of the block it is in, and runs are skipped (filled
// only under a non-finite scale). Same contract as addScaled. A literal
// group tests its room against end, the end of the block it is in, so only
// a group past that end consults the record and enters the next block.
func addScaledLits(body []byte, tab *scaledTab, dst []float32, l *Blocks) {
	zero := tab[encode.ZeroGroupByte][0] // m·0: ±0, or NaN for a non-finite scale
	fill := zero != zero
	hi := len(dst)
	w, end, off, inline := 0, 0, 0, 0
	for w < hi {
		b := body[off]
		if b > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, math.MaxInt)
			runEnd := min(w+k*encode.GroupSize, hi)
			if fill {
				addFill(dst[w:runEnd], zero)
			}
			w, off = runEnd, next
			inline = 0
			continue
		}
		if lim := end - w; inline >= litCoreAfter && lim >= encode.GroupSize {
			lim -= lim % encode.GroupSize
			nb := simd.AddScaledLiteralsAsm(tab, body[off:], dst[w:w+lim]) // >= 1: body[off] is a literal with a full group of room
			off += nb
			w += nb * encode.GroupSize
			continue
		}
		if w+encode.GroupSize > end {
			if w >= end { // past the block's end, so not the tensor's
				end = l.enter(dst, w)
				continue
			}
			// Partial tail group (hi is the tensor end mid-group).
			for k := 0; w < hi; k, w = k+1, w+1 {
				dst[w] += tab[b][k]
			}
			off++
			continue
		}
		inline++
		row := &tab[b]
		d := dst[w : w+encode.GroupSize : w+encode.GroupSize]
		d[0] += row[0]
		d[1] += row[1]
		d[2] += row[2]
		d[3] += row[3]
		d[4] += row[4]
		w += encode.GroupSize
		off++
	}
}

// packRangeFast quantizes buf[lo:hi] into out (indexed from out[0], one
// byte per group, absolute-slot layout with no zero-run encoding),
// routing whole 8-group blocks through the assembly core and the
// remainder through the scalar group loops. Residual updates are
// identical to the scalar path: the asm core performs the same compares
// against ±tpos and the same v - dq[q] subtraction per element, except
// that a block of 40 zero digits is not written back at all when dq[1] is
// +0 (v - (+0) = v; see simd.QuantPackBlocks).
func packRangeFast(buf []float32, lo, hi int, tpos float32, dq *dequantTab, out []byte) {
	g := 0
	if blocks := (hi - lo) / (8 * encode.GroupSize); blocks > 0 {
		packBlocksFn(buf[lo:hi], out, blocks, tpos, dq[0], dq[1], dq[2])
		lo += blocks * 8 * encode.GroupSize
		g = blocks * 8
	}
	i := lo
	for ; i+encode.GroupSize <= hi; i, g = i+encode.GroupSize, g+1 {
		out[g] = quantPack5(buf, i, tpos, dq)
	}
	if i < hi {
		out[g] = quantPackTail(buf, i, hi, tpos, dq)
	}
}

// quantPackRangeDispatch is quantPackRange (absolute group slots in the
// full output buffer) with the asm block core when dispatched.
func quantPackRangeDispatch(buf []float32, lo, hi int, tpos float32, dq *dequantTab, out []byte) {
	if packBlocksFn != nil {
		packRangeFast(buf, lo, hi, tpos, dq, out[lo/encode.GroupSize:])
		return
	}
	quantPackRange(buf, lo, hi, tpos, dq, out)
}

// Word constants of compactChunk's walk: eight ZeroGroupBytes, and the
// masks of the classic has-a-zero-byte test, (x-lo8) &^ x & hi8 != 0.
const (
	lo8         = 0x0101010101010101
	hi8         = 0x8080808080808080
	zeroGroups8 = lo8 * uint64(encode.ZeroGroupByte)
)

// compactChunk zero-run encodes one packed (absolute-slot) region in
// place and reports it the way encodeTernaryChunk does: the leading and
// trailing zero groups as counts for pass2.encode's join (a region of nothing
// else reports them all in lead), the middle — first through last
// non-zero-group byte — compacted where it stands. The walk is
// word-at-a-time at both extremes: a uint64 equal to zeroGroups8 adds 8 to
// the run (so at the zero fractions 3LC produces the pass reads n/40 words,
// not n/5 bytes), one without a ZeroGroupByte moves as 8 literals, and a
// mixed word (or the sub-word tail) is walked byte by byte. The write
// cursor never passes the read cursor (runs only ever shrink), and the
// emission is flushZeroRun's, so the compacted stream is byte-identical to
// encoding with inline ZRE.
func compactChunk(region []byte) ternChunk {
	lead, w, run := -1, 0, 0
	for r := 0; r < len(region); {
		step := len(region) - r
		if step >= 8 {
			step = 8
			x := binary.LittleEndian.Uint64(region[r:]) ^ zeroGroups8
			if x == 0 {
				run += 8
				r += 8
				continue
			}
			if (x-lo8)&^x&hi8 == 0 && lead >= 0 {
				if run > 0 {
					w = flushZeroRun(region, w, run)
					run = 0
				}
				binary.LittleEndian.PutUint64(region[w:], x^zeroGroups8)
				w += 8
				r += 8
				continue
			}
		}
		for end := r + step; r < end; r++ {
			b := region[r]
			if b == encode.ZeroGroupByte {
				run++
				continue
			}
			if lead < 0 {
				lead, w = r, r
			} else if run > 0 {
				w = flushZeroRun(region, w, run)
			}
			run = 0
			region[w] = b
			w++
		}
	}
	if lead < 0 {
		return ternChunk{lead: run, allZero: true}
	}
	return ternChunk{lead: lead, trail: run, mid: region[lead:w]}
}

// encodeTernaryChunkFast is the asm-tier encodeTernaryChunk: pack the
// chunk to absolute slots, then compact.
func encodeTernaryChunkFast(buf []float32, lo, hi int, tpos float32, dq *dequantTab, region []byte) ternChunk {
	packRangeFast(buf, lo, hi, tpos, dq, region)
	return compactChunk(region)
}
