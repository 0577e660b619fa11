package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"threelc/internal/kernel/simd"
)

// Bit-plane kernels for the packed float32 wire: a lossless repacking of
// the tensors a compressing design exempts from its codec (batch-norm
// vectors, small biases), whose bytes look random to a byte-oriented coder
// but whose bit planes do not — neighbours share sign and exponent, and a
// pull is a multiple of ulp(W), so its low mantissa planes are mostly zero.
//
// Values travel in blocks of PlaneBlock = 64. Per block:
//
//	base   4 bytes LE  the block's largest magnitude, max(bits(v) &^ sign)
//	mask   4 bytes LE  bit j set = plane j is present
//	planes one per set bit of mask, ascending j: 8 bytes LE, bit k of the
//	       word is bit j of value k's transformed word
//
// where value v's transformed word is sign(v) | (base − (bits(v) &^ sign)):
// the sign in bit 31 and, below it, the distance of v's magnitude from the
// block's largest, which fits 31 bits because no magnitude exceeds base. A
// plane that is zero in all 64 values is not sent. Subtracting from the
// largest — not XOR with a neighbour — is what clears planes: magnitudes in
// one block differ by a small integer in the bit pattern's own ordering, and
// a small integer has zero high bits whatever carries the XOR of two nearby
// patterns would have rippled through them.
//
// The last block of a tensor whose length is not a multiple of 64 holds the
// n remaining values; its planes are ⌈n/8⌉ bytes, the low bytes of the same
// word, and the bits past value n − 1 in the last of them must be zero.
//
// The format is stateless and self-delimiting given the element count; it
// carries every bit pattern (±0, denormals, ±Inf, every NaN payload) exactly.
//
// The 64×32 bit transpose at the heart of it is word-parallel on both tiers.
// The scalar tier puts value i and value i + 32 in one uint64 and runs five
// masked-swap stages (Hacker's Delight §7-3, LSB-first) that transpose both
// 32×32 halves at once — 80 swaps a block, about 12 simple operations a value
// where a bit-at-a-time loop spends 32 iterations; it is its own inverse, so
// unpack runs the same stages. The asm tier (simd.PlanesPackAsm,
// PlanesUnpackAsm) goes through byte planes and VPMOVMSKB and handles a
// whole block, header and plane selection included, in one call.

// PlaneBlock is the number of values in one block of the packed wire.
const PlaneBlock = 64

const (
	signBit32 = 1 << 31
	// planeHeader is base + mask.
	planeHeader = 8
)

// planesMaxLen is the longest packed form of n values: every plane of
// every block present. It exceeds the raw 4n, which is what lets a caller
// fall back to the raw wire in the same buffer.
func planesMaxLen(n int) int {
	full, tail := n/PlaneBlock, n%PlaneBlock
	size := full * (planeHeader + 32*8)
	if tail > 0 {
		size += planeHeader + 32*((tail+7)/8)
	}
	return size
}

// transposePlanes transposes the two 32×32 bit matrices that sit side by
// side in w — rows are words, column c of the low matrix is bit c, of the
// high matrix bit 32 + c — in place: afterwards bit c of w[r] is what bit r
// of w[c] was, in each half. Every mask selects, inside a 2j-bit group, the
// low j bits, so a shift by j never carries a bit across the halves.
func transposePlanes(w *[32]uint64) {
	for k := 0; k < 16; k++ {
		t := (w[k]>>16 ^ w[k+16]) & 0x0000ffff0000ffff
		w[k] ^= t << 16
		w[k+16] ^= t
	}
	for g := 0; g < 32; g += 16 {
		for k := g; k < g+8; k++ {
			t := (w[k&31]>>8 ^ w[(k+8)&31]) & 0x00ff00ff00ff00ff
			w[k&31] ^= t << 8
			w[(k+8)&31] ^= t
		}
	}
	for g := 0; g < 32; g += 8 {
		for k := g; k < g+4; k++ {
			t := (w[k&31]>>4 ^ w[(k+4)&31]) & 0x0f0f0f0f0f0f0f0f
			w[k&31] ^= t << 4
			w[(k+4)&31] ^= t
		}
	}
	for g := 0; g < 32; g += 4 {
		for k := g; k < g+2; k++ {
			t := (w[k&31]>>2 ^ w[(k+2)&31]) & 0x3333333333333333
			w[k&31] ^= t << 2
			w[(k+2)&31] ^= t
		}
	}
	for k := 0; k < 32; k += 2 {
		t := (w[k&31]>>1 ^ w[(k+1)&31]) & 0x5555555555555555
		w[k&31] ^= t << 1
		w[(k+1)&31] ^= t
	}
}

// planesFwd is the scalar forward core: the largest magnitude of the 64
// values as base, their transformed words transposed into w — plane j in
// w[j], bit k from value k — and the OR of the words, whose set bits name
// the planes that are not all zero.
func planesFwd(src *[PlaneBlock]float32, w *[32]uint64) (base, mask uint32) {
	for _, v := range src {
		base = max(base, math.Float32bits(v)&^signBit32)
	}
	var any uint64
	for i := range w {
		lo, hi := math.Float32bits(src[i]), math.Float32bits(src[i+32])
		lo = lo&signBit32 | (base - lo&^signBit32)
		hi = hi&signBit32 | (base - hi&^signBit32)
		w[i] = uint64(lo) | uint64(hi)<<32
		any |= w[i]
	}
	transposePlanes(w)
	return base, uint32(any) | uint32(any>>32)
}

// planesInv is the scalar inverse core: the 64 values of the block whose
// planes are in w, as raw little-endian float32 bytes — the form the raw
// cores add. It clobbers w.
func planesInv(w *[32]uint64, base uint32, raw *[4 * PlaneBlock]byte) {
	transposePlanes(w)
	for i, x := range w {
		lo, hi := uint32(x), uint32(x>>32)
		binary.LittleEndian.PutUint32(raw[4*i:], lo&signBit32|(base-lo&^signBit32)&^signBit32)
		binary.LittleEndian.PutUint32(raw[4*i+128:], hi&signBit32|(base-hi&^signBit32)&^signBit32)
	}
}

// A block is packed and unpacked by its tier's core, called by tier,
// directly, and not through func variables like the rest of the registry:
// an indirect call would send the block-sized scratch arrays of the loops
// below from the stack to the heap, once a call.

// packPlaneBlock writes one block — base, mask, then the low pb bytes of
// every plane of the mask cut to the bits in valid — to the front of out
// and returns its length. Planes are stored a word at a time, so out must
// have the block's worst case and 7 bytes to spare.
//
//3lc:noalloc
func packPlaneBlock(out []byte, src *[PlaneBlock]float32, pb int, valid uint64) int {
	if activeTier == TierAsm {
		return simd.PlanesPackAsm(src, out, pb, valid)
	}
	var w [32]uint64
	base, mask := planesFwd(src, &w)
	binary.LittleEndian.PutUint32(out[0:], base)
	binary.LittleEndian.PutUint32(out[4:], mask)
	n := planeHeader
	for m := mask; m != 0; m &= m - 1 {
		binary.LittleEndian.PutUint64(out[n:], w[bits.TrailingZeros32(m)&31]&valid)
		n += pb
	}
	return n
}

// planeRanks[b] holds, in byte i, the rank of bit i among the set bits of b,
// or 0x80 where bit i is clear: a plane's place among the planes its mask
// sends, eight planes a lookup.
var planeRanks = func() (tab [256]uint64) {
	for b := range tab {
		rank := 0
		for i := 0; i < 8; i++ {
			if b>>i&1 == 0 {
				tab[b] |= 0x80 << (8 * i)
				continue
			}
			tab[b] |= uint64(rank) << (8 * i)
			rank++
		}
	}
	return tab
}()

// unpackPlaneBlock rebuilds one block from base, mask and its planes, pb
// bytes each at the front of planes, as raw little-endian float32 bytes —
// the form the raw cores add.
//
//3lc:noalloc
//3lc:decode
func unpackPlaneBlock(raw *[4 * PlaneBlock]byte, planes []byte, base, mask uint32, pb int) {
	if activeTier == TierAsm {
		// The asm core reads 32 rows of 8 bytes whatever the mask and pb;
		// near the payload's end it gets them from a padded copy.
		if len(planes) < 8+31*pb {
			var pad [8 + 31*8]byte
			copy(pad[:], planes)
			planes = pad[:]
		}
		var rank [32]byte
		sent := uint64(0)
		for i := 0; i < 4; i++ {
			b := mask >> (8 * i) & 0xff
			// 0x80 + sent keeps bit 7 and fits the byte: no carry.
			binary.LittleEndian.PutUint64(rank[8*i:], planeRanks[b]+sent*0x0101010101010101)
			sent += uint64(bits.OnesCount32(b))
		}
		simd.PlanesUnpackAsm(planes, &rank, pb, base, raw)
		return
	}
	var w [32]uint64
	p := 0
	for m := mask; m != 0 && len(planes)-p >= pb; m &= m - 1 {
		var word uint64
		for b := 0; b < pb; b++ {
			word |= uint64(planes[p+b]) << (8 * b)
		}
		w[bits.TrailingZeros32(m)&31] = word
		p += pb
	}
	planesInv(&w, base, raw)
}

// planesLand is RawAdd of one block, or RawFirstAdd when first is set.
func planesLand(first bool, dst []float32, raw []byte) {
	asm := activeTier == TierAsm
	switch {
	case !first && asm:
		simd.RawAddAsm(dst, raw)
	case !first:
		rawAddRange(dst, raw)
	case asm:
		simd.RawFirstAddAsm(dst, raw)
	default:
		rawFirstAddRange(dst, raw)
	}
}

// AppendPlanes32 appends the packed form of src to dst and returns the
// extended slice. dst is grown once, to the format's worst case (every
// plane present, slightly above 4 bytes a value), so a caller that finds
// the result no shorter than the raw wire can rewrite it raw in place
// without a second growth. Planes are stored a word at a time, so up to 7
// bytes of dst's spare capacity past the result are overwritten.
//
//3lc:noalloc
func AppendPlanes32(dst []byte, src []float32) []byte {
	notePass("planes-pack", len(src))
	off := len(dst)
	dst = growCap(dst, planesMaxLen(len(src))+7)
	out := dst[off:cap(dst)]
	n := 0
	for ; len(src) >= PlaneBlock; src = src[PlaneBlock:] {
		n += packPlaneBlock(out[n:], (*[PlaneBlock]float32)(src), 8, ^uint64(0))
	}
	if len(src) > 0 {
		// The tail is padded with copies of its first value: they change
		// neither base nor mask, and their bits are cut from every plane.
		var pad [PlaneBlock]float32
		for i := copy(pad[:], src); i < PlaneBlock; i++ {
			pad[i] = src[0]
		}
		n += packPlaneBlock(out[n:], &pad, (len(src)+7)/8, 1<<len(src)-1)
	}
	return dst[:off+n]
}

// checkPlanes32 walks a packed payload's block headers and reports whether
// it spells exactly n values: a base with its sign bit clear, as many plane
// words as the mask has bits, no bytes left over, and zero padding bits in a
// tail block's planes. It reads no plane of a full block, so it costs a few
// operations a block; the unpack entries run it before they touch dst.
//
//3lc:noalloc
//3lc:decode
func checkPlanes32(payload []byte, n int) error {
	p := 0
	for left := n; left > 0; left -= PlaneBlock {
		if len(payload)-p < planeHeader {
			return fmt.Errorf("kernel: packed payload ends inside the header of the block at value %d", n-left)
		}
		base := binary.LittleEndian.Uint32(payload[p:])
		mask := binary.LittleEndian.Uint32(payload[p+4:])
		p += planeHeader
		if base&signBit32 != 0 {
			return fmt.Errorf("kernel: packed block at value %d has base %#x, not a magnitude", n-left, base)
		}
		pb := 8
		if left < PlaneBlock {
			pb = (left + 7) / 8
		}
		need := pb * bits.OnesCount32(mask)
		if len(payload)-p < need {
			return fmt.Errorf("kernel: packed block at value %d has %d plane bytes, its mask asks for %d", n-left, len(payload)-p, need)
		}
		if pad := left % 8; left < PlaneBlock && pad != 0 {
			for q := p + pb - 1; q < p+need; q += pb {
				if payload[q]>>pad != 0 {
					return fmt.Errorf("kernel: packed tail block of %d values has bits set past its last value", left)
				}
			}
		}
		p += need
	}
	if p != len(payload) {
		return fmt.Errorf("kernel: packed payload is %d bytes, %d values take %d", len(payload), n, p)
	}
	return nil
}

// Planes32Add accumulates a packed payload into dst, dst[i] += v, where v
// is the inverse of AppendPlanes32 to the bit. The payload is untrusted: it
// is checked as a whole (checkPlanes32) and refused before dst is touched.
// A plane word may spell a distance above its block's base; the magnitude
// then wraps within 31 bits — like the raw wire, every well-framed payload
// is some tensor.
//
//3lc:noalloc
//3lc:decode
func Planes32Add(dst []float32, payload []byte) error {
	return unpackPlanes32(dst, payload, false)
}

// Planes32FirstAdd is the first accumulation of a fresh sum from a packed
// payload: dst[i] = +0 + v, what clearing dst and Planes32Add leave, −0
// included (see RawFirstAdd).
//
//3lc:noalloc
//3lc:decode
func Planes32FirstAdd(dst []float32, payload []byte) error {
	return unpackPlanes32(dst, payload, true)
}

// unpackPlanes32 is the one decode loop: each block is rebuilt as a raw
// payload on the stack and handed to the tier's raw core — add or
// first-add — so a packed wire lands in dst exactly as the raw wire of the
// same tensor does on the same tier, NaN operand order included.
//
//3lc:noalloc
//3lc:decode
func unpackPlanes32(dst []float32, payload []byte, first bool) error {
	if err := checkPlanes32(payload, len(dst)); err != nil {
		return err
	}
	notePass("planes-unpack", len(dst))
	var raw [4 * PlaneBlock]byte
	p := 0
	for len(dst) > 0 && len(payload)-p >= planeHeader {
		blk := dst[:min(len(dst), PlaneBlock)]
		base := binary.LittleEndian.Uint32(payload[p:])
		mask := binary.LittleEndian.Uint32(payload[p+4:])
		pb := (len(blk) + 7) / 8
		p += planeHeader
		unpackPlaneBlock(&raw, payload[p:], base, mask, pb)
		p += pb * bits.OnesCount32(mask)
		planesLand(first, blk, raw[:4*len(blk)])
		dst = dst[len(blk):]
	}
	return nil
}
