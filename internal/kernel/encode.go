package kernel

import (
	"math"

	"threelc/internal/encode"
	"threelc/internal/tensor"
)

// EncodeTernary is compress pass 2, the fused 3LC encoder: in a single
// loop over buf it 3-value quantizes each element against the scale m
// (q = round(v/m), Eq. 2), locally dequantizes and subtracts the sent
// value so buf is left holding the residual (steps a–b of Figure 3), packs
// each 5-element group into one quartic byte (§3.2), and — when zeroRun is
// set — zero-run encodes on the fly (§3.3), appending the wire payload
// directly to dst. No intermediate ternary buffer or dequantized tensor
// ever exists.
//
// m is the float64 quantization scale max|buf|·s; the value transmitted on
// the wire (and used for the local dequantization) is float32(m), exactly
// as in the staged quant.Quantize3Into/DequantizeInto pair, so wires and
// residuals are bit-identical to the staged pipeline. m == 0 (an all-zero
// buffer) quantizes everything to zero without touching buf at all; on the
// asm tier the same holds block by block — 40 elements that all quantize
// to zero are read, not rewritten (the residual v − M·0 is v), so the pass
// costs what its output says: a read-only scan plus the non-zero blocks.
// It consults no block index: every block is read.
//
//3lc:noalloc
func EncodeTernary(buf []float32, m float64, zeroRun bool, dst []byte) []byte {
	var none *BlockMax
	return none.EncodeTernary(buf, m, zeroRun, dst)
}

// EncodeTernary is compress pass 2 consulting x: a block whose recorded
// max is under the quantizer threshold is not read — its groups join the
// zero run (or are written as zero-group bytes without zero-run encoding)
// — and every other block is quantized, packed and compacted as by the
// index-free kernel, so wires and residuals are bit-identical to it. Under
// a scale whose float32 is not finite M·0 is NaN and every residual
// changes, so no block is skipped. The pass hook reports the elements
// actually read.
//
//3lc:noalloc
func (x *BlockMax) EncodeTernary(buf []float32, m float64, zeroRun bool, dst []byte) []byte {
	n := len(buf)
	qlen := encode.QuarticEncodedLen(n)
	if m == 0 {
		// max|buf| == 0: every element quantizes to zero and the residual
		// subtraction is a no-op, so the wire — one maximal zero run — is
		// emitted without a pass over tensor memory.
		if zeroRun {
			return appendZeroRun(dst, qlen)
		}
		return appendZeroGroups(dst, qlen)
	}
	p := pass2{idx: x.consult(n), tpos: ternaryThreshold(1 / m), dq: makeDequantTab(float32(m)), zeroRun: zeroRun}
	p.skip = p.tpos
	if math.Float32bits(p.dq[1]) != 0 {
		p.skip = 0 // M·0 is NaN: no block max is under 0
	}
	base := len(dst)
	dst = growCap(dst, qlen)
	w, read := p.encode(buf, dst[base:base+qlen])
	notePass("quantize+pack", read)
	return dst[:base+w]
}

// pass2 is what one EncodeTernary call holds fixed: the index it consults
// (nil: none), the quantizer threshold, the level below which a block is
// skipped (tpos, or 0 to skip nothing), the dequantization levels and the
// wire form.
type pass2 struct {
	idx        []float32
	tpos, skip float32
	dq         dequantTab
	zeroRun    bool
}

// encode encodes buf block by block into out, one slot per group, and
// returns the wire's length and the elements read. Without zero-run
// encoding every group keeps its slot and that is the whole job. With it,
// each visited block is compacted in place and the blocks are joined as
// they come: the zero run open at a block's first non-zero group is
// flushed at the write cursor and the block's middle moves down behind it,
// never over a byte not yet read (a zero run never encodes longer than its
// groups, so the cursor never passes the slots of the groups written).
func (p *pass2) encode(buf []float32, out []byte) (w, read int) {
	n := len(buf)
	run := 0 // zero groups not yet flushed
	for b := 0; b < n; {
		e := n
		if p.idx != nil {
			e = min(b+BlockElems, n)
		}
		g0, g1 := b/encode.GroupSize, (e+encode.GroupSize-1)/encode.GroupSize
		var c ternChunk
		switch {
		case p.idx != nil && p.idx[b/BlockElems] < p.skip:
			if !p.zeroRun {
				fillZeroGroups(out[g0:g1])
			}
			c = ternChunk{lead: g1 - g0, allZero: true}
		case !p.zeroRun:
			quantPackRangeDispatch(buf, b, e, p.tpos, &p.dq, out)
			read += e - b
		case packBlocksFn != nil:
			c = encodeTernaryChunkFast(buf, b, e, p.tpos, &p.dq, out[g0:g1])
			read += e - b
		default:
			c = encodeTernaryChunk(buf, b, e, p.tpos, &p.dq, out[g0:g1])
			read += e - b
		}
		b = e
		if !p.zeroRun {
			continue
		}
		if c.allZero {
			run += c.lead
			continue
		}
		w = flushZeroRun(out, w, run+c.lead)
		w += copy(out[w:], c.mid)
		run = c.trail
	}
	if !p.zeroRun {
		return len(out), read
	}
	return flushZeroRun(out, w, run), read
}

// ternChunk is one block's contribution to the fused encode: the count of
// leading zero groups, the fully encoded middle (first through last
// non-zero-group byte, left in the block's own slots), and the count of
// trailing zero groups. A block containing only zero groups reports them
// all in lead with allZero set.
type ternChunk struct {
	lead    int
	trail   int
	mid     []byte
	allZero bool
}

// encodeTernaryChunk runs the fused quantize+pack+ZRE loop over buf[lo:hi]
// into region (the chunk's absolute group slots) and reports it the way
// compactChunk does: leading and trailing zero groups as counts, the
// middle zero-run encoded starting at the slot of its first non-zero
// group.
func encodeTernaryChunk(buf []float32, lo, hi int, tpos float32, dq *dequantTab, region []byte) ternChunk {
	lead, w, run := -1, 0, 0
	for i, g := lo, 0; i < hi; i, g = i+encode.GroupSize, g+1 {
		var b byte
		if i+encode.GroupSize <= hi {
			b = quantPack5(buf, i, tpos, dq)
		} else {
			b = quantPackTail(buf, i, hi, tpos, dq)
		}
		if b == encode.ZeroGroupByte {
			run++
			continue
		}
		if lead < 0 {
			lead, w = g, g
		} else {
			w = flushZeroRun(region, w, run)
		}
		run = 0
		region[w] = b
		w++
	}
	if lead < 0 {
		return ternChunk{lead: run, allZero: true}
	}
	return ternChunk{lead: lead, trail: run, mid: region[lead:w]}
}

// quantPackRange quantizes full groups (plus a trailing partial group when
// hi is the end of the tensor) of buf[lo:hi] into their absolute group
// slots of out. Block boundaries are multiples of GroupSize, so only the
// tensor's last block can hold a partial group.
//
//3lc:noalloc
func quantPackRange(buf []float32, lo, hi int, tpos float32, dq *dequantTab, out []byte) {
	g := lo / encode.GroupSize
	i := lo
	for ; i+encode.GroupSize <= hi; i, g = i+encode.GroupSize, g+1 {
		out[g] = quantPack5(buf, i, tpos, dq)
	}
	if i < hi {
		out[g] = quantPackTail(buf, i, hi, tpos, dq)
	}
}

// dequantTab precomputes the three possible dequantized values
// {−M, M·0, +M} so the hot loop replaces a convert+multiply per element
// with an index. The entries are built with the exact staged
// multiplications (M·float32(q)), so table lookup is bit-identical to the
// staged DequantizeInto — including M = ±Inf, where M·0 is NaN, not zero.
type dequantTab [3]float32

func makeDequantTab(m32 float32) dequantTab {
	return dequantTab{m32 * float32(-1), m32 * float32(0), m32 * float32(1)}
}

// ternaryThreshold precomputes the float32 decision threshold of the
// quantizer so the per-element work needs no float64 arithmetic at all.
//
// The staged reference quantizes v to +1 iff x = fl64(float64(v)·inv) >=
// 0.5 (see the quantOne history: round-half-away over the in-range
// product collapses to that comparison, with x <= −0.5 for −1). For a
// fixed inv > 0, x is a monotone non-decreasing function of v — float32
// to float64 conversion is exact and IEEE multiplication rounds
// monotonically — so there is a unique smallest float32 t with
// fl64(t·inv) >= 0.5, and for EVERY float32 v: v·inv >= 0.5 ⟺ v >= t.
// The negative side is exactly symmetric (negation is sign-exact under
// round-to-nearest: fl64(−v·inv) = −fl64(v·inv)), so x <= −0.5 ⟺
// v <= −t. The per-element quantizer therefore reduces to two float32
// comparisons against ±t, bit-identical to the staged float64 product
// for every input including NaN (all comparisons false → digit 0, like
// int8(NaN)).
//
// t is found by converting the real-valued crossing point 0.5/inv to
// float32 and walking ULPs (math.Nextafter32) to the exact boundary — at
// most a couple of steps, once per tensor per pass.
//
// Degenerate scales take the all-zeros digit everywhere in the staged
// pipeline — inv == 0 (M = +Inf: every finite product is ±0, and
// Inf·0 = NaN) and inv = NaN both make every comparison false — and are
// represented by t = NaN, which likewise fails every comparison. (m < 0
// cannot reach the encoder: it is a |max| reduction result.)
func ternaryThreshold(inv float64) float32 {
	if !(inv > 0) {
		return float32(math.NaN())
	}
	t := float32(0.5 / inv)
	if math.IsNaN(float64(t)) {
		t = float32(math.MaxFloat32)
	}
	for float64(t)*inv < 0.5 {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	for {
		p := math.Nextafter32(t, float32(math.Inf(-1)))
		if float64(p)*inv >= 0.5 {
			t = p
			continue
		}
		return t
	}
}

// quantOne quantizes one element in place and returns its shifted ternary
// digit (q+1 ∈ {0,1,2}), subtracting the locally dequantized value so *p
// is left holding the residual. tpos is the precomputed float32 decision
// threshold (ternaryThreshold): v >= tpos → +1, v <= −tpos → −1, else 0,
// bit-identical to the staged float64 round(v·inv) — without the
// per-element convert+multiply that dominated the fused encode pass.
//
// The two comparisons are written as independent ifs (the conditions are
// mutually exclusive: tpos > 0 or NaN) so the compiler emits conditional
// moves: under steady-state error feedback many elements hover around the
// ±M/2 thresholds, which makes an actual branch here mispredict heavily
// (measured ~3x slower).
func quantOne(p *float32, tpos float32, dq *dequantTab) int {
	v := *p
	q := 1
	if v >= tpos {
		q = 2
	}
	if v <= -tpos {
		q = 0
	}
	*p = v - dq[q]
	return q
}

// quantPack5 quantizes the full group buf[i:i+5] and packs it into one
// quartic byte (§3.2), updating the residuals in place.
func quantPack5(buf []float32, i int, tpos float32, dq *dequantTab) byte {
	g := buf[i : i+encode.GroupSize : i+encode.GroupSize]
	a := quantOne(&g[0], tpos, dq)
	b := quantOne(&g[1], tpos, dq)
	c := quantOne(&g[2], tpos, dq)
	d := quantOne(&g[3], tpos, dq)
	e := quantOne(&g[4], tpos, dq)
	return byte(a*81 + b*27 + c*9 + d*3 + e)
}

// quantPackTail packs the trailing partial group buf[i:n], zero-padding
// the missing digits exactly like the staged encoder.
func quantPackTail(buf []float32, i, n int, tpos float32, dq *dequantTab) byte {
	var digits [encode.GroupSize]int
	for k := range digits {
		digits[k] = 1 // ternary 0 after the +1 shift
	}
	for k := 0; i < n; k, i = k+1, i+1 {
		digits[k] = quantOne(&buf[i], tpos, dq)
	}
	return byte(digits[0]*81 + digits[1]*27 + digits[2]*9 + digits[3]*3 + digits[4])
}

// EncodeStoch is the fused stochastic-ternary encoder (the "Stoch 3-value
// + QE" baseline): one loop quantizes each element to sign(v) with
// probability |v|/m and packs the groups into quartic bytes appended to
// dst. RNG draws happen element by element in input order — exactly the
// staged quant.QuantizeStochastic3Into sequence — so wires are
// byte-identical. data is not modified (the stochastic scheme is unbiased
// and keeps no error state). m == 0 emits all-zero groups without
// consuming any RNG draws, like the staged quantizer.
func EncodeStoch(data []float32, m float64, rng *tensor.RNG, dst []byte) []byte {
	n := len(data)
	qlen := encode.QuarticEncodedLen(n)
	if m == 0 {
		return appendZeroGroups(dst, qlen)
	}
	notePass("stoch-quantize+pack", n)
	inv := 1 / m
	base := len(dst)
	dst = growCap(dst, qlen)
	out := dst[base : base+qlen]
	g := 0
	i := 0
	for ; i+encode.GroupSize <= n; i, g = i+encode.GroupSize, g+1 {
		a := stochDigit(data[i], inv, rng)
		b := stochDigit(data[i+1], inv, rng)
		c := stochDigit(data[i+2], inv, rng)
		d := stochDigit(data[i+3], inv, rng)
		e := stochDigit(data[i+4], inv, rng)
		out[g] = byte(a*81 + b*27 + c*9 + d*3 + e)
	}
	if i < n {
		var digits [encode.GroupSize]uint16
		for k := range digits {
			digits[k] = 1
		}
		for k := 0; i < n; k, i = k+1, i+1 {
			digits[k] = stochDigit(data[i], inv, rng)
		}
		out[g] = byte(digits[0]*81 + digits[1]*27 + digits[2]*9 + digits[3]*3 + digits[4])
	}
	return dst[:base+qlen]
}

// stochDigit draws one stochastic ternary digit: sign(v) with probability
// |v|/m, zero otherwise. One RNG draw per element, always — matching the
// staged quantizer's consumption order.
func stochDigit(v float32, inv float64, rng *tensor.RNG) uint16 {
	p := math.Abs(float64(v)) * inv
	if rng.Float64() < p {
		if v > 0 {
			return 2
		}
		return 0
	}
	return 1
}

// flushZeroRun emits the canonical zero-run encoding of a run of `run`
// zero-group bytes at out[w:], returning the advanced cursor: a run of
// 14q+r is one encode.LongRun token carrying uvarint(q−1) when q > 0, then
// one byte in [243, 254] for r of 2..13 or a literal zero group for r = 1 —
// byte-for-byte the staged encode.ZeroRunEncodeAppend emission, and never
// longer than the run it replaces (compactChunk and pass2.encode write in
// place). The uvarint is written by hand to keep the function inlinable:
// the scalar loops flush at every non-zero group.
func flushZeroRun(out []byte, w, run int) int {
	if run >= encode.RunUnit {
		out[w] = encode.LongRun
		w++
		e := run/encode.RunUnit - 1
		for ; e >= 0x80; e >>= 7 {
			out[w] = byte(e) | 0x80
			w++
		}
		out[w] = byte(e)
		w++
		run %= encode.RunUnit
	}
	if run >= 2 {
		out[w] = byte(encode.RunBase - 2 + run)
		w++
	} else if run == 1 {
		out[w] = encode.ZeroGroupByte
		w++
	}
	return w
}

// appendZeroRun appends the zero-run encoding of `groups` consecutive zero
// groups — the whole-tensor-is-zero fast path: at most a long-run token
// and one remainder byte, whatever the tensor's size.
func appendZeroRun(dst []byte, groups int) []byte {
	const most = 1 + encode.MaxRunVarint + 1
	dst = growCap(dst, most)
	w := len(dst)
	return dst[:w+flushZeroRun(dst[w:w+most], 0, groups)]
}

// appendZeroGroups appends `groups` literal zero-group bytes (the m == 0
// fast path without zero-run encoding).
func appendZeroGroups(dst []byte, groups int) []byte {
	dst = growCap(dst, groups)
	w := len(dst)
	fillZeroGroups(dst[w : w+groups])
	return dst[:w+groups]
}

// fillZeroGroups writes a zero-group byte to every slot of out.
func fillZeroGroups(out []byte) {
	for i := range out {
		out[i] = encode.ZeroGroupByte
	}
}

// growCap ensures cap(dst)-len(dst) >= n without changing len, with 1/8
// headroom so buffers whose needed size fluctuates step to step converge
// to a stable capacity instead of reallocating at every new maximum.
func growCap(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		want := len(b) + n
		nb := make([]byte, len(b), want+want/8)
		copy(nb, b)
		return nb
	}
	return b
}
