package simd

// HasAsm reports whether the assembly fast paths are compiled into this
// binary. They additionally require AVX2 at runtime (Detect().AVX2).
const HasAsm = true

//go:noescape
func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)

//go:noescape
func addScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int

//go:noescape
func setScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int

//go:noescape
func accMaxAbsAsm(buf, in *float32, n int) float32

//go:noescape
func fusedSGDStepAsm(w, v, gs, acc *float32, n int, gscale, wd, mom, lr float32) float32

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

// AddScaledLiteralsAsm is the AVX LUT-row form of AddScaledLiterals: one
// 16-byte + 4-byte row load and add per literal byte. Same contract and
// bit-identity as the Go form (dst is operand 1 of every add). Requires
// AVX; callers gate on Detect().AVX2.
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

// SetScaledLiteralsAsm is the write form of AddScaledLiteralsAsm.
func SetScaledLiteralsAsm(tab *[256][5]float32, body []byte, dst []float32) int {
	n := len(body)
	if g := len(dst) / 5; n > g {
		n = g
	}
	if n <= 0 {
		return 0
	}
	return setScaledLiteralsAsm(tab, &body[0], n, &dst[0])
}

// AccMaxAbsAsm is the AVX2 form of AccMaxAbs: buf[i] += in[i] with the
// max|buf| reduction fused into the same sweep, any length (scalar tail
// inside the core). buf must be at least as long as in. Bit-identical to
// the scalar kernel by the same argument as AccMaxAbs — candidates are
// non-negative after the sign mask and NaN never wins (the running max is
// VMAXPS's second source) — so the lane split cannot change the result.
// Requires AVX2; callers gate on Detect().AVX2.
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

// FusedSGDStepAsm is the AVX2 core behind kernel.FusedSGDStep: the fused
// average → momentum → weight → delta → accumulate+|max| sweep over one
// tensor, any length (scalar tail inside the core). Every element goes
// through the scalar reference's exact sequence of separately rounded
// multiplies, adds and subtracts (no FMA), so weights, velocity and the
// accumulator are bit-identical to it up to NaN payloads, and the returned
// max|acc| exactly. w, gs and acc must be at least as long as v. Requires
// AVX2; callers gate on Detect().AVX2.
//
//3lc:noalloc
func FusedSGDStepAsm(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	n := len(v)
	if n == 0 {
		return 0
	}
	_, _, _ = w[n-1], gs[n-1], acc[n-1]
	return fusedSGDStepAsm(&w[0], &v[0], &gs[0], &acc[0], n, gscale, wd, mom, lr)
}
