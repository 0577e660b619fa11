package simd

// HasAsm reports whether the assembly fast paths are compiled into this
// binary. They additionally require AVX2 at runtime (Detect().AVX2).
const HasAsm = true

//go:noescape
func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)

//go:noescape
func addScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int

//go:noescape
func accMaxAbsAsm(buf, in *float32, n int) float32

//go:noescape
func maxAbsAsm(buf *float32, n int) float32

//go:noescape
func fusedSGDStepAsm(w, v, gs, acc *float32, n int, gscale, wd, mom, lr float32) float32

//go:noescape
func fusedSGDStepDeltaAsm(w, v, gs, delta *float32, n int, gscale, wd, mom, lr float32)

//go:noescape
func fusedSGDStepRawAsm(w, v, gs *float32, raw *byte, n int, gscale, wd, mom, lr float32)

//go:noescape
func rawPutAsm(dst *byte, src *float32, n int)

//go:noescape
func rawGetAsm(dst *float32, src *byte, n int)

//go:noescape
func rawAddAsm(dst *float32, src *byte, n int)

//go:noescape
func rawFirstAddAsm(dst *float32, src *byte, n int)

// QuantPackBlocks runs the AVX2 fused quantize→residual→quartic-pack over
// blocks of 8 quartic groups (40 elements): for each element of buf it
// computes the ternary digit against ±tpos (tpos > 0 or NaN), subtracts the
// selected dequantization level (dqNeg/dqZero/dqPos) in place, and writes
// one packed quartic byte per group to out. buf must hold blocks*40
// elements and out blocks*8 bytes. Requires AVX2; callers gate on
// Detect().AVX2.
//
// A block whose 40 digits are all zero costs its loads and one 8-byte
// store: with dqZero = +0 the residual v − (+0) is v for every v, −0
// included, so nothing is written back (a signalling NaN is left
// signalling where the subtraction would have quieted it — inside the
// tier contract's "up to NaN payloads"). Any other dqZero — m·0 is NaN
// under a non-finite scale — keeps the residual write on every block.
//
// Bit-identity with the scalar kernel: the digit compares use the ordered
// predicates GE_OS/LE_OS (false on NaN, like Go's >= and <=), the
// residual subtract keeps buf as operand 1 exactly as the compiled scalar
// SUBSS does (so NaN payload selection matches), and the pack is integer.
//
//3lc:noalloc
func QuantPackBlocks(buf []float32, out []byte, blocks int, tpos, dqNeg, dqZero, dqPos float32) {
	if blocks <= 0 {
		return
	}
	_ = buf[blocks*40-1]
	_ = out[blocks*8-1]
	quantPackBlocks(&buf[0], &out[0], blocks, tpos, -tpos, dqNeg, dqZero, dqPos)
}

// AddScaledLiteralsAsm consumes a run of literal quartic bytes from body,
// accumulating row tab[b] into dst for each — one 16-byte + 4-byte row load
// and add per byte — and returns the number of bytes consumed. It stops at
// the first zero-run marker byte (> 242, encode.MaxQuartic) or when body or
// full groups of dst run out; the caller handles markers, partial tail
// groups, and resumes. Each consumed byte k does dst[5k+j] += tab[b][j] in
// index order with dst as operand 1 of every add, so the result is
// bit-identical to the scalar per-byte loop. Requires AVX; callers gate on
// Detect().AVX2.
func AddScaledLiteralsAsm(tab *[256][5]float32, body []byte, dst []float32) int {
	n := len(body)
	if g := len(dst) / 5; n > g {
		n = g
	}
	if n <= 0 {
		return 0
	}
	return addScaledLiteralsAsm(tab, &body[0], n, &dst[0])
}

// AccMaxAbsAsm is the AVX2 accumulate+|max| core: buf[i] += in[i] with the
// max|buf| reduction fused into the same sweep, any length (scalar tail
// inside the core). buf must be at least as long as in. Bit-identical to
// the scalar kernel: after the sign mask every candidate is non-negative
// (or NaN, which never wins — the running max is VMAXPS's second source),
// so the max reduction is exactly associative and the lane split cannot
// change the result. Requires AVX2; callers gate on Detect().AVX2.
//
//3lc:noalloc
func AccMaxAbsAsm(buf, in []float32) float32 {
	n := len(in)
	if n == 0 {
		return 0
	}
	_ = buf[n-1]
	return accMaxAbsAsm(&buf[0], &in[0], n)
}

// MaxAbsAsm is the AVX2 |max| core: max|buf| of any length (scalar tail
// inside the core), read-only — AccMaxAbsAsm's reduction without the add.
// Bit-identical to the scalar kernel by the same argument: a NaN never
// wins and the lane split cannot change a max of non-negative values.
// Requires AVX2; callers gate on Detect().AVX2.
//
//3lc:noalloc
func MaxAbsAsm(buf []float32) float32 {
	if len(buf) == 0 {
		return 0
	}
	return maxAbsAsm(&buf[0], len(buf))
}

// SGDStepAsm is the AVX2 core behind kernel.Blocks.SGDStep: the fused
// average → momentum → weight → delta → accumulate+|max| sweep over one
// tensor, any length (scalar tail inside the core). Every element goes
// through the scalar reference's exact sequence of separately rounded
// multiplies, adds and subtracts (no FMA), so weights, velocity and the
// accumulator are bit-identical to it up to NaN payloads, and the returned
// max|acc| exactly. w, gs and acc must be at least as long as v. Requires
// AVX2; callers gate on Detect().AVX2.
//
//3lc:noalloc
func SGDStepAsm(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	n := len(v)
	if n == 0 {
		return 0
	}
	_, _, _ = w[n-1], gs[n-1], acc[n-1]
	return fusedSGDStepAsm(&w[0], &v[0], &gs[0], &acc[0], n, gscale, wd, mom, lr)
}

// SGDStepDeltaAsm is the delta-writing form of SGDStepAsm: the
// same per-element sequence through the weight write, then delta[i] =
// w_new − w_old stored instead of folded into an accumulator. w, gs and
// delta must be at least as long as v; delta is only written. Requires
// AVX2; callers gate on Detect().AVX2.
//
//3lc:noalloc
func SGDStepDeltaAsm(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
	n := len(v)
	if n == 0 {
		return
	}
	_, _, _ = w[n-1], gs[n-1], delta[n-1]
	fusedSGDStepDeltaAsm(&w[0], &v[0], &gs[0], &delta[0], n, gscale, wd, mom, lr)
}

// SGDStepRawAsm is the raw-writing form of SGDStepDeltaAsm: the
// same core, with the delta's side handed over as a *byte, so raw[4i:4i+4]
// holds delta[i]'s little-endian bits. The core stores it with unaligned
// moves only, as the raw cores below do: a body starts one scheme byte
// into its wire. w and gs must be at least as long as v, raw at least
// 4·len(v) bytes; raw is only written. Requires AVX2; callers gate on
// Detect().AVX2.
//
//3lc:noalloc
func SGDStepRawAsm(w, v, gs []float32, raw []byte, gscale, wd, mom, lr float32) {
	n := len(v)
	if n == 0 {
		return
	}
	_, _, _ = w[n-1], gs[n-1], raw[4*n-1]
	fusedSGDStepRawAsm(&w[0], &v[0], &gs[0], &raw[0], n, gscale, wd, mom, lr)
}

// The four raw float32 cores below carry tensors to and from their wire
// form, little-endian IEEE-754 bytes: on amd64 that is the floats' own
// memory, so each is accMaxAbsAsm's 32-floats-per-iteration loop minus the
// max chain. The byte side is handed to the assembly as a *byte and only
// ever touched by unaligned moves — a payload starts one scheme byte into
// its wire and is never 4-aligned — which is also where the float/byte
// reinterpretation lives: behind the stubs' typed pointers, with no
// package unsafe in this package. The byte side must hold at least 4·len(floats)
// bytes. All require AVX2; callers gate on Detect().AVX2.

// RawPutAsm writes src to dst as little-endian float32 bytes.
//
//3lc:noalloc
func RawPutAsm(dst []byte, src []float32) {
	n := len(src)
	if n == 0 {
		return
	}
	_ = dst[4*n-1]
	rawPutAsm(&dst[0], &src[0], n)
}

// RawGetAsm is the inverse of RawPutAsm: dst[i] is the float32 whose
// little-endian bytes are src[4i:4i+4], every bit pattern preserved.
//
//3lc:noalloc
func RawGetAsm(dst []float32, src []byte) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = src[4*n-1]
	rawGetAsm(&dst[0], &src[0], n)
}

// RawAddAsm accumulates a raw payload: dst[i] += src[i], dst operand 1 of
// every add like the other add cores, so results are bit-identical to the
// scalar loop up to NaN payloads.
//
//3lc:noalloc
func RawAddAsm(dst []float32, src []byte) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = src[4*n-1]
	rawAddAsm(&dst[0], &src[0], n)
}

// RawFirstAddAsm is the first accumulation into a fresh sum: dst[i] =
// +0 + src[i], bit for bit what zeroing dst and then RawAddAsm leaves (a
// −0 in src comes out +0, which is why it is an add and not a copy),
// without the zeroing sweep and without reading dst.
//
//3lc:noalloc
func RawFirstAddAsm(dst []float32, src []byte) {
	n := len(dst)
	if n == 0 {
		return
	}
	_ = src[4*n-1]
	rawFirstAddAsm(&dst[0], &src[0], n)
}

//go:noescape
func planesPackAsm(src *[64]float32, out *byte, pb int, valid uint64) int

//go:noescape
func planesUnpackAsm(planes *byte, rank *[32]byte, pb int, base uint32, out *[256]byte)

// PlanesPackAsm writes one block of the packed float32 wire
// (kernel/planes.go) to the front of out and returns its length: base, the
// largest magnitude of the 64 values in src taken as a bit pattern; mask,
// the OR of their transformed words sign | (base − magnitude); and, for
// every set bit j of mask in ascending order, the low pb bytes of plane j —
// bit k from value k — ANDed with valid. Every plane, in the mask or not,
// is stored as 8 bytes at the write position, which only a plane of the
// mask advances, so out must hold 16 + 31·pb bytes. Integer throughout:
// byte-identical to the scalar core for every bit pattern. Requires AVX2;
// callers gate on Detect().AVX2.
//
//3lc:noalloc
func PlanesPackAsm(src *[64]float32, out []byte, pb int, valid uint64) int {
	_ = out[15+31*pb]
	return planesPackAsm(src, &out[0], pb, valid)
}

// PlanesUnpackAsm is the inverse: from base and the planes a block's mask
// names, pb bytes each at the front of planes, it rebuilds the 64 values'
// float32 bits, sign | ((base − distance) & 0x7fffffff), and writes them to
// out little-endian — a raw payload, which the raw cores then set or add.
// rank[j] is the rank of plane j among the planes sent, or any byte with
// bit 7 set where the mask has no plane j. All 32 rows are read, 8 bytes
// each, whatever the mask and pb, so planes must hold 8 + 31·pb bytes; what
// lies past the planes sent is never used. Requires AVX2; callers gate on
// Detect().AVX2.
//
//3lc:noalloc
func PlanesUnpackAsm(planes []byte, rank *[32]byte, pb int, base uint32, out *[256]byte) {
	_ = planes[7+31*pb]
	planesUnpackAsm(&planes[0], rank, pb, base, out)
}
