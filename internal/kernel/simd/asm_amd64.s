#include "textflag.h"

// The ternary digit of v against threshold t>0 is
//
//	q = 1 + (v >= t) - (v <= -t)   with the compares as 0/1,
//
// the selected dequantization level is dqPos/dqNeg/dqZero by the same
// compares, and the packed quartic byte of digits d0..d4 is
// 81*d0 + 27*d1 + 9*d2 + 3*d3 + d4.
//
// The pack uses a multiply trick: with 8 little-endian digit bytes as a
// uint64 x, multiplying by
//
//	C = 81<<32 | 27<<24 | 9<<16 | 3<<8 | 1 = 0x511B090301
//
// makes byte 4 of x*C exactly 81*d0+27*d1+9*d2+3*d3+d4: every partial
// product below byte 4 sums to < 256 for digits <= 2 (worst case 80), so
// no carry reaches byte 4, and bytes beyond d4 only contribute to bytes
// >= 5. One IMULQ/SHRQ/MOVB per group replaces 5 scalar multiplies.

// QUANT quantizes the 8 floats in V (loaded from off(SI)) with the ordered
// predicates GE_OS ($13) and LE_OS ($2), false on NaN like Go's >= and <=.
// The two 0/-1 masks are disjoint, so the level is a bitwise select,
// dq = dqZero ^ (ge & (dqZero^dqPos)) ^ (le & (dqZero^dqNeg)), exact for
// any bit patterns; the residual v - dq (v as operand 1) is stored back
// and V is left holding the eight int32 values q-1 = le - ge.
#define QUANT(off, V) \
	VCMPPS $13, Y15, V, Y5; \
	VCMPPS $2, Y14, V, Y6; \
	VPAND Y11, Y5, Y7; \
	VPAND Y13, Y6, Y8; \
	VPXOR Y8, Y7, Y7; \
	VPXOR Y12, Y7, Y7; \
	VSUBPS Y7, V, Y7; \
	VMOVUPS Y7, off(SI); \
	VPSUBD Y5, Y6, V

// EMIT folds the five digit bytes at the bottom of R into out byte g.
#define EMIT(R, g) \
	IMULQ R9, R; \
	SHRQ $32, R; \
	MOVB R, g(DI)

// func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)
//
// Constants: Y15=tpos Y14=tneg Y13=dqZero^dqNeg Y12=dqZero Y11=dqZero^dqPos
// Y10=all ones Y9=0x7fffffff, R9=C, R10=eight ZeroGroupBytes, R8=bits of
// dqZero.
//
// Each 40-element block (5 vectors Y0..Y4, 8 groups) is first scanned
// read-only: |v| < tpos compared on the bit patterns as int32, which orders
// non-negative floats like the floats themselves and puts every NaN above
// +Inf. When it holds for all 40 lanes no compare of QUANT can fire (a NaN
// v passes only against a NaN tpos, which fails every compare too), so all
// digits are 1 and, dqZero being +0, every residual v - (+0) is v itself:
// the block costs its loads and one 8-byte store of ZeroGroupBytes. The
// scan is allowed to err towards the dense path, never the other way; a
// dqZero that is not +0 bits (m*0 = NaN under a non-finite scale) sends
// every block there.
//
// The dense path leaves the 40 values q-1 in Y0..Y4, packs them to signed
// bytes in registers (per 128-bit lane: lane 0 gets elements 0..3 of each
// vector, lane 1 elements 4..7; unpacking the lanes' dwords pairwise
// restores element order), adds the 1 and moves the digit bytes 0..39 to
// five GPRs; group g's window at byte 5g is a shift or a double shift away.
TEXT ·quantPackBlocks(SB), NOSPLIT, $0-44
	MOVQ buf+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ blocks+16(FP), CX
	VBROADCASTSS tpos+24(FP), Y15
	VBROADCASTSS tneg+28(FP), Y14
	VBROADCASTSS dqNeg+32(FP), Y13
	VBROADCASTSS dqZero+36(FP), Y12
	VBROADCASTSS dqPos+40(FP), Y11
	VPXOR Y12, Y13, Y13
	VPXOR Y12, Y11, Y11
	VPCMPEQD Y10, Y10, Y10
	VPSRLD $1, Y10, Y9
	MOVL dqZero+36(FP), R8
	MOVQ $0x511B090301, R9
	MOVQ $0x7979797979797979, R10

blockloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VPAND Y9, Y0, Y5
	VPAND Y9, Y1, Y6
	VPMAXSD Y6, Y5, Y5
	VPAND Y9, Y2, Y6
	VPAND Y9, Y3, Y7
	VPMAXSD Y7, Y6, Y6
	VPAND Y9, Y4, Y7
	VPMAXSD Y7, Y6, Y6
	VPMAXSD Y6, Y5, Y5
	VPCMPGTD Y5, Y15, Y5       // tpos > max|v| per lane, as int32
	VMOVMSKPS Y5, AX
	XORL $0xFF, AX             // lanes that may quantize non-zero
	ORL R8, AX
	JNZ dense
	MOVQ R10, (DI)

next:
	ADDQ $160, SI
	ADDQ $8, DI
	DECQ CX
	JNZ blockloop
	VZEROUPPER
	RET

dense:
	QUANT(0, Y0)
	QUANT(32, Y1)
	QUANT(64, Y2)
	QUANT(96, Y3)
	QUANT(128, Y4)
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSDW Y4, Y4, Y4
	VPACKSSWB Y2, Y0, Y0       // lane 0: bytes 0-3 8-11 16-19 24-27, lane 1: 4-7 12-15 20-23 28-31
	VPACKSSWB Y4, Y4, Y4       // lane 0: bytes 32-35, lane 1: 36-39
	VPSUBB Y10, Y0, Y0         // - (-1): digits 0, 1, 2
	VPSUBB Y10, Y4, Y4
	VEXTRACTI128 $1, Y0, X1
	VEXTRACTI128 $1, Y4, X5
	VPUNPCKLDQ X1, X0, X2      // bytes 0-15
	VPUNPCKHDQ X1, X0, X3      // bytes 16-31
	VPUNPCKLDQ X5, X4, X4      // bytes 32-39
	VMOVQ X2, AX
	VPEXTRQ $1, X2, BX
	VMOVQ X3, DX
	VPEXTRQ $1, X3, R11
	VMOVQ X4, R12
	MOVQ AX, R13
	EMIT(R13, 0)               // bytes 0-4
	SHRQ $40, BX, AX           // bytes 5-12
	EMIT(AX, 1)
	MOVQ BX, AX
	SHRQ $16, AX               // bytes 10-15
	EMIT(AX, 2)
	SHRQ $56, DX, BX           // bytes 15-22
	EMIT(BX, 3)
	SHRQ $32, R11, DX          // bytes 20-27
	EMIT(DX, 4)
	MOVQ R11, AX
	SHRQ $8, AX                // bytes 25-31
	EMIT(AX, 5)
	SHRQ $48, R12, R11         // bytes 30-37
	EMIT(R11, 6)
	SHRQ $24, R12              // bytes 35-39
	EMIT(R12, 7)
	JMP next

// func addScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int
//
// Per literal byte b: dst[0:5] += tab[b] as one 16-byte VADDPS plus one
// scalar VADDSS (the 16-byte loads are safe because tab has 256 padded
// rows, so row+16 is always in bounds). dst is operand 1 of both adds to
// match the scalar loop's NaN behavior. Exits at the first marker byte
// (> 242), returning bytes consumed.
TEXT ·addScaledLiteralsAsm(SB), NOSPLIT, $0-40
	MOVQ tab+0(FP), R8
	MOVQ body+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	XORQ DX, DX

addloop:
	CMPQ DX, CX
	JGE adddone
	MOVBLZX (SI)(DX*1), AX
	CMPL AX, $242
	JA adddone
	LEAQ (AX)(AX*4), AX        // row offset = b * 20
	SHLQ $2, AX
	VMOVUPS (R8)(AX*1), X0
	VMOVSS 16(R8)(AX*1), X1
	VMOVUPS (DI), X2
	VMOVSS 16(DI), X3
	VADDPS X0, X2, X2          // dst + row, dst as operand 1
	VADDSS X1, X3, X3
	VMOVUPS X2, (DI)
	VMOVSS X3, 16(DI)
	ADDQ $20, DI
	INCQ DX
	JMP addloop

adddone:
	MOVQ DX, ret+32(FP)
	RET

// func accMaxAbsAsm(buf, in *float32, n int) float32
//
// Compress pass 1: buf[i] += in[i] with max|buf| reduced in the same
// sweep, 32 floats per iteration over four independent max chains (so the
// loop streams at load/store rate instead of serializing on VMAXPS
// latency), then 8 at a time, then a scalar tail. buf is operand 1 of
// every add, like the literal core. |s| is the sign-bit mask
// (Y15 = 0x7fffffff per lane). The running max is always the SECOND
// source of VMAXPS/VMAXSS, which return the second source whenever either
// operand is NaN: a NaN candidate loses exactly like Go's `a > m`, and the
// max (seeded +0, fed non-negative candidates) is never NaN itself, so any
// lane split reduces to the same bits as the scalar loop.
TEXT ·accMaxAbsAsm(SB), NOSPLIT, $0-28
	MOVQ buf+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ n+16(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $1, Y15, Y15
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

accmax32:
	CMPQ CX, $32
	JL accmax8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	VADDPS 64(SI), Y2, Y2
	VADDPS 96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VANDPS Y15, Y0, Y0
	VANDPS Y15, Y1, Y1
	VANDPS Y15, Y2, Y2
	VANDPS Y15, Y3, Y3
	VMAXPS Y8, Y0, Y8
	VMAXPS Y9, Y1, Y9
	VMAXPS Y10, Y2, Y10
	VMAXPS Y11, Y3, Y11
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP accmax32

accmax8:
	CMPQ CX, $8
	JL accmaxreduce
	VMOVUPS (DI), Y0
	VADDPS (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	VANDPS Y15, Y0, Y0
	VMAXPS Y8, Y0, Y8
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP accmax8

accmaxreduce:
	VMAXPS Y9, Y8, Y8
	VMAXPS Y11, Y10, Y10
	VMAXPS Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VMAXPS X9, X8, X8
	VPSHUFD $0x4E, X8, X9
	VMAXPS X9, X8, X8
	VPSHUFD $0xB1, X8, X9
	VMAXPS X9, X8, X8          // lane 0 = max of all lanes

accmaxtail:
	TESTQ CX, CX
	JZ accmaxdone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	VANDPS X15, X0, X0
	VMAXSS X8, X0, X8
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ CX
	JMP accmaxtail

accmaxdone:
	VMOVSS X8, ret+24(FP)
	VZEROUPPER
	RET

// func maxAbsAsm(buf *float32, n int) float32
//
// The read-only form of accMaxAbsAsm: max|buf| over 32 floats per
// iteration in four independent chains, then 8 at a time, then a scalar
// tail, with the same sign-bit mask and the running max always VMAXPS's
// second source, so a NaN never wins and any lane split reduces to the
// scalar loop's bits.
TEXT ·maxAbsAsm(SB), NOSPLIT, $0-20
	MOVQ buf+0(FP), DI
	MOVQ n+8(FP), CX
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $1, Y15, Y15
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

max32:
	CMPQ CX, $32
	JL max8
	VANDPS (DI), Y15, Y0
	VANDPS 32(DI), Y15, Y1
	VANDPS 64(DI), Y15, Y2
	VANDPS 96(DI), Y15, Y3
	VMAXPS Y8, Y0, Y8
	VMAXPS Y9, Y1, Y9
	VMAXPS Y10, Y2, Y10
	VMAXPS Y11, Y3, Y11
	ADDQ $128, DI
	SUBQ $32, CX
	JMP max32

max8:
	CMPQ CX, $8
	JL maxreduce
	VANDPS (DI), Y15, Y0
	VMAXPS Y8, Y0, Y8
	ADDQ $32, DI
	SUBQ $8, CX
	JMP max8

maxreduce:
	VMAXPS Y9, Y8, Y8
	VMAXPS Y11, Y10, Y10
	VMAXPS Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VMAXPS X9, X8, X8
	VPSHUFD $0x4E, X8, X9
	VMAXPS X9, X8, X8
	VPSHUFD $0xB1, X8, X9
	VMAXPS X9, X8, X8          // lane 0 = max of all lanes

maxtail:
	TESTQ CX, CX
	JZ maxdone
	VMOVSS (DI), X0
	VANDPS X15, X0, X0
	VMAXSS X8, X0, X8
	ADDQ $4, DI
	DECQ CX
	JMP maxtail

maxdone:
	VMOVSS X8, ret+16(FP)
	VZEROUPPER
	RET

// SGDVEC and SGDONE are the shared body of the two fused SGD sweeps: 8
// elements and 1 element of the scalar reference's sequence of individually
// rounded float32 operations (separate multiply, add and subtract — never
// FMA, whose single rounding would change bits):
//
//	g   = gs·gscale + wd·old      old = w
//	vv  = mom·v + g               v   = vv
//	nw  = old − lr·vv             w   = nw
//
// They load from (R8)=w, (R9)=v, (R10)=gs, store v and w back and leave the
// model delta nw − old in Y5/X5. Constants: Y12=gscale Y13=wd Y14=mom
// Y15=lr. What each sweep does with the delta is its own last step.
#define SGDVEC \
	VMOVUPS (R8), Y0; \
	VMOVUPS (R10), Y1; \
	VMULPS Y12, Y1, Y1; \
	VMULPS Y0, Y13, Y2; \
	VADDPS Y2, Y1, Y1; \
	VMOVUPS (R9), Y3; \
	VMULPS Y3, Y14, Y3; \
	VADDPS Y1, Y3, Y3; \
	VMOVUPS Y3, (R9); \
	VMULPS Y3, Y15, Y4; \
	VSUBPS Y4, Y0, Y5; \
	VMOVUPS Y5, (R8); \
	VSUBPS Y0, Y5, Y5

#define SGDONE \
	VMOVSS (R8), X0; \
	VMOVSS (R10), X1; \
	VMULSS X12, X1, X1; \
	VMULSS X0, X13, X2; \
	VADDSS X2, X1, X1; \
	VMOVSS (R9), X3; \
	VMULSS X3, X14, X3; \
	VADDSS X1, X3, X3; \
	VMOVSS X3, (R9); \
	VMULSS X3, X15, X4; \
	VSUBSS X4, X0, X5; \
	VMOVSS X5, (R8); \
	VSUBSS X0, X5, X5

// func fusedSGDStepAsm(w, v, gs, acc *float32, n int, gscale, wd, mom, lr float32) float32
//
// The parameter server's fused optimizer sweep in its accumulate form, 8
// elements per iteration then a scalar tail: SGDVEC / SGDONE, then
//
//	sum = acc + (nw − old)        acc = sum
//	m   = max(m, |sum|)
//
// Y11 = abs mask, Y10 = running max (second VMAXPS source; see
// accMaxAbsAsm for why NaN loses).
TEXT ·fusedSGDStepAsm(SB), NOSPLIT, $0-60
	MOVQ w+0(FP), R8
	MOVQ v+8(FP), R9
	MOVQ gs+16(FP), R10
	MOVQ acc+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSS gscale+40(FP), Y12
	VBROADCASTSS wd+44(FP), Y13
	VBROADCASTSS mom+48(FP), Y14
	VBROADCASTSS lr+52(FP), Y15
	VPCMPEQD Y11, Y11, Y11
	VPSRLD $1, Y11, Y11
	VXORPS Y10, Y10, Y10

sgd8:
	CMPQ CX, $8
	JL sgdreduce
	SGDVEC
	VMOVUPS (R11), Y6
	VADDPS Y5, Y6, Y6          // sum = acc + (nw - old)
	VMOVUPS Y6, (R11)
	VANDPS Y11, Y6, Y6
	VMAXPS Y10, Y6, Y10
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, CX
	JMP sgd8

sgdreduce:
	VEXTRACTF128 $1, Y10, X9
	VMAXPS X9, X10, X10
	VPSHUFD $0x4E, X10, X9
	VMAXPS X9, X10, X10
	VPSHUFD $0xB1, X10, X9
	VMAXPS X9, X10, X10        // lane 0 = max of all lanes

sgdtail:
	TESTQ CX, CX
	JZ sgddone
	SGDONE
	VMOVSS (R11), X6
	VADDSS X5, X6, X6
	VMOVSS X6, (R11)
	VANDPS X11, X6, X6
	VMAXSS X10, X6, X10
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JMP sgdtail

sgddone:
	VMOVSS X10, ret+56(FP)
	VZEROUPPER
	RET

// func fusedSGDStepDeltaAsm(w, v, gs, delta *float32, n int, gscale, wd, mom, lr float32)
//
// The delta-writing form of the same sweep, for pull contexts with no
// accumulation buffer to fold into (raw floats and the non-accumulating
// codecs): SGDVEC / SGDONE, then delta = nw − old. delta is only written.
TEXT ·fusedSGDStepDeltaAsm(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), R8
	MOVQ v+8(FP), R9
	MOVQ gs+16(FP), R10
	MOVQ delta+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSS gscale+40(FP), Y12
	VBROADCASTSS wd+44(FP), Y13
	VBROADCASTSS mom+48(FP), Y14
	VBROADCASTSS lr+52(FP), Y15

sgddelta8:
	CMPQ CX, $8
	JL sgddeltatail
	SGDVEC
	VMOVUPS Y5, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, CX
	JMP sgddelta8

sgddeltatail:
	TESTQ CX, CX
	JZ sgddeltadone
	SGDONE
	VMOVSS X5, (R11)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JMP sgddeltatail

sgddeltadone:
	VZEROUPPER
	RET

// func fusedSGDStepRawAsm(w, v, gs *float32, raw *byte, n int, gscale, wd, mom, lr float32)
//
// The raw-writing form: fusedSGDStepDeltaAsm with its fourth operand typed
// as bytes. Its stores (VMOVUPS, VMOVSS) need no alignment, so the delta's
// bits land little-endian wherever the wire's body starts; same frame.
TEXT ·fusedSGDStepRawAsm(SB), NOSPLIT, $0-56
	JMP ·fusedSGDStepDeltaAsm(SB)

// The four raw float32 cores move tensors to and from their wire form —
// little-endian IEEE-754 bytes, which on amd64 are the floats' own memory —
// 32 floats per iteration, then 8, then one at a time: accMaxAbsAsm's loop
// without the max chain. The byte side is a *byte and every access to it is
// VMOVUPS / a VEX memory operand / MOVL, none of which needs alignment: a
// payload starts one scheme byte into its wire and is never 4-aligned.

// func rawPutAsm(dst *byte, src *float32, n int)
//
// dst[4i:4i+4] = little-endian bits of src[i].
TEXT ·rawPutAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

rawput32:
	CMPQ CX, $32
	JL rawput8
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP rawput32

rawput8:
	CMPQ CX, $8
	JL rawputtail
	VMOVUPS (SI), Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP rawput8

rawputtail:
	TESTQ CX, CX
	JZ rawputdone
	MOVL (SI), AX
	MOVL AX, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JMP rawputtail

rawputdone:
	VZEROUPPER
	RET

// func rawGetAsm(dst *float32, src *byte, n int)
//
// dst[i] = float32 from the little-endian bits at src[4i:4i+4]: the same
// move as rawPutAsm with the typed sides exchanged, and the same frame.
TEXT ·rawGetAsm(SB), NOSPLIT, $0-24
	JMP ·rawPutAsm(SB)

// func rawAddAsm(dst *float32, src *byte, n int)
//
// dst[i] += src[i], dst operand 1 of every add like the other add cores.
TEXT ·rawAddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

rawadd32:
	CMPQ CX, $32
	JL rawadd8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS (SI), Y0, Y0
	VADDPS 32(SI), Y1, Y1
	VADDPS 64(SI), Y2, Y2
	VADDPS 96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP rawadd32

rawadd8:
	CMPQ CX, $8
	JL rawaddtail
	VMOVUPS (DI), Y0
	VADDPS (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP rawadd8

rawaddtail:
	TESTQ CX, CX
	JZ rawadddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ CX
	JMP rawaddtail

rawadddone:
	VZEROUPPER
	RET

// func rawFirstAddAsm(dst *float32, src *byte, n int)
//
// dst[i] = +0 + src[i] (Y15 = +0 as operand 1): what zeroing dst and then
// rawAddAsm leaves, bit for bit — a −0 on the wire becomes +0 and a
// signalling NaN is quieted, which a copy would not do — without the
// zeroing sweep and without reading dst.
TEXT ·rawFirstAddAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y15, Y15, Y15

rawfirst32:
	CMPQ CX, $32
	JL rawfirst8
	VADDPS (SI), Y15, Y0
	VADDPS 32(SI), Y15, Y1
	VADDPS 64(SI), Y15, Y2
	VADDPS 96(SI), Y15, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP rawfirst32

rawfirst8:
	CMPQ CX, $8
	JL rawfirsttail
	VADDPS (SI), Y15, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP rawfirst8

rawfirsttail:
	TESTQ CX, CX
	JZ rawfirstdone
	VADDSS (SI), X15, X0
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ CX
	JMP rawfirsttail

rawfirstdone:
	VZEROUPPER
	RET

// Bit-plane cores of the packed float32 wire (kernel/planes.go): one block
// of 64 values to and from its wire form — base, plane mask, and the planes
// the mask names, plane j a word whose bit k is bit j of value k's
// transformed word sign | (base − magnitude).
//
// Both directions go through bytes. Packing, VPSHUFB/VPERMD gather byte b of
// eight values into qword b of their register, a 4×4 qword transpose lines
// up byte b of 32 values in one register, and VPMOVMSKB of that register
// shifted left by 7 − i is plane 8b + i. Unpacking reads the planes as a
// byte matrix, row r the r-th plane sent, transposes it, moves each column's
// bytes from rank order to plane order with VPSHUFB, and peels the columns
// with VPMOVMSKB, whose 32 bits are then one value's transformed word.

// Per 128-bit lane: byte b of its four dwords, for b = 0..3.
DATA planesShuf<>+0(SB)/8, $0x0d0905010c080400
DATA planesShuf<>+8(SB)/8, $0x0f0b07030e0a0602
DATA planesShuf<>+16(SB)/8, $0x0d0905010c080400
DATA planesShuf<>+24(SB)/8, $0x0f0b07030e0a0602
GLOBL planesShuf<>(SB), RODATA|NOPTR, $32

// Dwords 0,4,1,5,2,6,3,7: pairs the two lanes' byte-b dwords into qword b.
DATA planesPerm<>+0(SB)/8, $0x0000000400000000
DATA planesPerm<>+8(SB)/8, $0x0000000500000001
DATA planesPerm<>+16(SB)/8, $0x0000000600000002
DATA planesPerm<>+24(SB)/8, $0x0000000700000003
GLOBL planesPerm<>(SB), RODATA|NOPTR, $32

// PLANEWORD replaces the eight values in V with their transformed words
// (Y15 = 0x7fffffff, Y13 = base) and ORs them into Y12.
#define PLANEWORD(V) \
	VPAND Y15, V, Y9; \
	VPSUBD Y9, Y13, Y9; \
	VPANDN V, Y15, V; \
	VPOR Y9, V, V; \
	VPOR V, Y12, Y12

// BYTEQUADS leaves byte b of V's eight dwords in qword b of V (Y14 =
// planesShuf, Y11 = planesPerm).
#define BYTEQUADS(V) \
	VPSHUFB Y14, V, V; \
	VPERMD V, Y11, V

// QUADTRANSPOSE turns A..D, qword b of each the byte-b octet of eight
// values, into byte planes: A = byte 0 of all 32 values in order, B = byte
// 1, C = byte 2, D = byte 3.
#define QUADTRANSPOSE(A, B, C, D) \
	VPUNPCKLQDQ B, A, Y8; \
	VPUNPCKHQDQ B, A, Y9; \
	VPUNPCKLQDQ D, C, Y10; \
	VPUNPCKHQDQ D, C, Y12; \
	VPERM2I128 $0x20, Y10, Y8, A; \
	VPERM2I128 $0x20, Y12, Y9, B; \
	VPERM2I128 $0x31, Y10, Y8, C; \
	VPERM2I128 $0x31, Y12, Y9, D

// PACK1 forms plane j — bit 7 − sh of byte planes L (values 0..31) and H
// (values 32..63) — cuts it to the block's values (R12) and stores it at the
// write offset R8, which moves on by the plane length CX only if the mask
// (DX) has bit j: a plane the mask leaves out is overwritten by the next.
// The shift works on 16-bit lanes; each byte's top bit still comes from its
// own bit 7 − sh.
#define PACK1(L, H, sh, j) \
	VPSLLW $sh, L, Y8; \
	VPSLLW $sh, H, Y9; \
	VPMOVMSKB Y8, AX; \
	VPMOVMSKB Y9, BX; \
	SHLQ $32, BX; \
	ORQ BX, AX; \
	ANDQ R12, AX; \
	MOVQ AX, (DI)(R8*1); \
	BTL $j, DX; \
	SBBQ R9, R9; \
	ANDQ CX, R9; \
	ADDQ R9, R8

#define PACK8(L, H, j) \
	PACK1(L, H, 7, j); \
	PACK1(L, H, 6, j+1); \
	PACK1(L, H, 5, j+2); \
	PACK1(L, H, 4, j+3); \
	PACK1(L, H, 3, j+4); \
	PACK1(L, H, 2, j+5); \
	PACK1(L, H, 1, j+6); \
	PACK1(L, H, 0, j+7)

// func planesPackAsm(src *[64]float32, out *byte, pb int, valid uint64) int
TEXT ·planesPackAsm(SB), NOSPLIT, $0-40
	MOVQ src+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ pb+16(FP), CX
	MOVQ valid+24(FP), R12
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $1, Y15, Y15

	// base = the largest magnitude, as an unsigned integer.
	VPAND Y15, Y0, Y8
	VPAND Y15, Y1, Y9
	VPAND Y15, Y2, Y10
	VPAND Y15, Y3, Y11
	VPMAXUD Y9, Y8, Y8
	VPMAXUD Y11, Y10, Y10
	VPAND Y15, Y4, Y9
	VPAND Y15, Y5, Y11
	VPMAXUD Y9, Y8, Y8
	VPMAXUD Y11, Y10, Y10
	VPAND Y15, Y6, Y9
	VPAND Y15, Y7, Y11
	VPMAXUD Y9, Y8, Y8
	VPMAXUD Y11, Y10, Y10
	VPMAXUD Y10, Y8, Y8
	VEXTRACTI128 $1, Y8, X9
	VPMAXUD X9, X8, X8
	VPSHUFD $0x4E, X8, X9
	VPMAXUD X9, X8, X8
	VPSHUFD $0xB1, X8, X9
	VPMAXUD X9, X8, X8
	VMOVD X8, AX
	MOVL AX, (DI)
	VPBROADCASTD X8, Y13

	// mask = the OR of the transformed words.
	VPXOR Y12, Y12, Y12
	PLANEWORD(Y0)
	PLANEWORD(Y1)
	PLANEWORD(Y2)
	PLANEWORD(Y3)
	PLANEWORD(Y4)
	PLANEWORD(Y5)
	PLANEWORD(Y6)
	PLANEWORD(Y7)
	VEXTRACTI128 $1, Y12, X9
	VPOR X9, X12, X12
	VPSHUFD $0x4E, X12, X9
	VPOR X9, X12, X12
	VPSHUFD $0xB1, X12, X9
	VPOR X9, X12, X12
	VMOVD X12, DX
	MOVL DX, 4(DI)

	VMOVDQU planesShuf<>(SB), Y14
	VMOVDQU planesPerm<>(SB), Y11
	BYTEQUADS(Y0)
	BYTEQUADS(Y1)
	BYTEQUADS(Y2)
	BYTEQUADS(Y3)
	BYTEQUADS(Y4)
	BYTEQUADS(Y5)
	BYTEQUADS(Y6)
	BYTEQUADS(Y7)
	QUADTRANSPOSE(Y0, Y1, Y2, Y3)
	QUADTRANSPOSE(Y4, Y5, Y6, Y7)

	MOVQ $8, R8
	PACK8(Y0, Y4, 0)
	PACK8(Y1, Y5, 8)
	PACK8(Y2, Y6, 16)
	PACK8(Y3, Y7, 24)
	MOVQ R8, ret+32(FP)
	VZEROUPPER
	RET

// Per 128-bit lane of two 8-byte rows: byte g of both, as word g.
DATA planesRows<>+0(SB)/8, $0x0b030a0209010800
DATA planesRows<>+8(SB)/8, $0x0f070e060d050c04
DATA planesRows<>+16(SB)/8, $0x0b030a0209010800
DATA planesRows<>+24(SB)/8, $0x0f070e060d050c04
GLOBL planesRows<>(SB), RODATA|NOPTR, $32

DATA planes15<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA planes15<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA planes15<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA planes15<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL planes15<>(SB), RODATA|NOPTR, $32

// ROWPAIRS loads rows 2q, 2q+1 (at R10, CX bytes apart) into V's low lane
// and rows 16+2q, 17+2q (at R11) into its high lane, and pairs their bytes
// into words (Y15 = planesRows): after the word transpose the low lanes
// hold rows 0..15 in order, the high lanes rows 16..31. A row is loaded as 8
// bytes whatever its length: what follows a tail block's shorter row lands
// in columns past the block's last value, which nobody reads.
#define ROWPAIRS(X, V) \
	VMOVQ (R10), X; \
	VPINSRQ $1, (R10)(CX*1), X, X; \
	VMOVQ (R11), X14; \
	VPINSRQ $1, (R11)(CX*1), X14, X14; \
	VINSERTI128 $1, X14, V, V; \
	VPSHUFB Y15, V, V; \
	ADDQ R9, R10; \
	ADDQ R9, R11

// RANKTOPLANE moves column register Z's bytes from rank order — byte r from
// the r-th plane sent — to plane order, zero where the mask has no plane:
// Y0 picks what comes from ranks 0..15, Y1 from ranks 16..31 (VPSHUFB
// cannot cross lanes, so each half is first copied to both).
#define RANKTOPLANE(Z) \
	VPERMQ $0x44, Z, Y2; \
	VPERMQ $0xEE, Z, Y3; \
	VPSHUFB Y0, Y2, Y2; \
	VPSHUFB Y1, Y3, Y3; \
	VPOR Y3, Y2, Z

// PEELWORDS stores the eight transformed words of column register Z, the
// values 8g+7 down to 8g, at off+28, off+24, ... off of (DI): byte j of Z
// is plane j's bits for those values, so VPMOVMSKB is the top one's word,
// and after each VPADDB that of the value below.
#define PEELWORDS(Z, off) \
	VPMOVMSKB Z, AX; \
	VPADDB Z, Z, Z; \
	MOVL AX, (off+28)(DI); \
	VPMOVMSKB Z, BX; \
	VPADDB Z, Z, Z; \
	MOVL BX, (off+24)(DI); \
	VPMOVMSKB Z, AX; \
	VPADDB Z, Z, Z; \
	MOVL AX, (off+20)(DI); \
	VPMOVMSKB Z, BX; \
	VPADDB Z, Z, Z; \
	MOVL BX, (off+16)(DI); \
	VPMOVMSKB Z, AX; \
	VPADDB Z, Z, Z; \
	MOVL AX, (off+12)(DI); \
	VPMOVMSKB Z, BX; \
	VPADDB Z, Z, Z; \
	MOVL BX, (off+8)(DI); \
	VPMOVMSKB Z, AX; \
	VPADDB Z, Z, Z; \
	MOVL AX, (off+4)(DI); \
	VPMOVMSKB Z, BX; \
	MOVL BX, (off)(DI)

// UNWORD turns the eight transformed words at off(DI) back into float32
// bits in place — sign | ((base − distance) & 0x7fffffff), Y15 =
// 0x7fffffff, Y13 = base.
#define UNWORD(off) \
	VMOVDQU (off)(DI), Y0; \
	VPAND Y15, Y0, Y1; \
	VPSUBD Y1, Y13, Y1; \
	VPAND Y15, Y1, Y1; \
	VPANDN Y0, Y15, Y0; \
	VPOR Y1, Y0, Y0; \
	VMOVDQU Y0, (off)(DI)

// func planesUnpackAsm(planes *byte, rank *[32]byte, pb int, base uint32, out *[256]byte)
TEXT ·planesUnpackAsm(SB), NOSPLIT, $0-40
	MOVQ planes+0(FP), R10
	MOVQ rank+8(FP), SI
	MOVQ pb+16(FP), CX
	MOVQ out+32(FP), DI
	LEAQ (CX)(CX*1), R9
	MOVQ CX, R11
	SHLQ $4, R11
	ADDQ R10, R11
	VMOVDQU planesRows<>(SB), Y15
	ROWPAIRS(X0, Y0)
	ROWPAIRS(X1, Y1)
	ROWPAIRS(X2, Y2)
	ROWPAIRS(X3, Y3)
	ROWPAIRS(X4, Y4)
	ROWPAIRS(X5, Y5)
	ROWPAIRS(X6, Y6)
	ROWPAIRS(X7, Y7)

	// 8×8 word transpose in each lane: words, dwords, qwords.
	VPUNPCKLWD Y1, Y0, Y8
	VPUNPCKHWD Y1, Y0, Y9
	VPUNPCKLWD Y3, Y2, Y10
	VPUNPCKHWD Y3, Y2, Y11
	VPUNPCKLWD Y5, Y4, Y12
	VPUNPCKHWD Y5, Y4, Y13
	VPUNPCKLWD Y7, Y6, Y14
	VPUNPCKHWD Y7, Y6, Y15
	VPUNPCKLDQ Y10, Y8, Y0
	VPUNPCKHDQ Y10, Y8, Y1
	VPUNPCKLDQ Y11, Y9, Y2
	VPUNPCKHDQ Y11, Y9, Y3
	VPUNPCKLDQ Y14, Y12, Y4
	VPUNPCKHDQ Y14, Y12, Y5
	VPUNPCKLDQ Y15, Y13, Y6
	VPUNPCKHDQ Y15, Y13, Y7
	VPUNPCKLQDQ Y4, Y0, Y8
	VPUNPCKHQDQ Y4, Y0, Y9
	VPUNPCKLQDQ Y5, Y1, Y10
	VPUNPCKHQDQ Y5, Y1, Y11
	VPUNPCKLQDQ Y6, Y2, Y12
	VPUNPCKHQDQ Y6, Y2, Y13
	VPUNPCKLQDQ Y7, Y3, Y14
	VPUNPCKHQDQ Y7, Y3, Y15

	// rank[j] is plane j's rank among the planes sent, or has bit 7 set.
	// Y0 = rank where it is 0..15, else bit 7 (VPSHUFB writes zero);
	// Y1 = rank − 16 where it is 16..31, else bit 7.
	VMOVDQU (SI), Y4
	VMOVDQU planes15<>(SB), Y5
	VPCMPGTB Y5, Y4, Y0
	VPOR Y4, Y0, Y0
	VPCMPEQB Y6, Y6, Y6
	VPXOR Y6, Y5, Y6           // 0xf0: adding it subtracts 16
	VPADDB Y6, Y4, Y1
	VPXOR Y7, Y7, Y7
	VPCMPGTB Y4, Y7, Y7
	VPOR Y7, Y1, Y1
	RANKTOPLANE(Y8)
	RANKTOPLANE(Y9)
	RANKTOPLANE(Y10)
	RANKTOPLANE(Y11)
	RANKTOPLANE(Y12)
	RANKTOPLANE(Y13)
	RANKTOPLANE(Y14)
	RANKTOPLANE(Y15)

	PEELWORDS(Y8, 0)
	PEELWORDS(Y9, 32)
	PEELWORDS(Y10, 64)
	PEELWORDS(Y11, 96)
	PEELWORDS(Y12, 128)
	PEELWORDS(Y13, 160)
	PEELWORDS(Y14, 192)
	PEELWORDS(Y15, 224)

	MOVL base+24(FP), AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13
	VPCMPEQD Y15, Y15, Y15
	VPSRLD $1, Y15, Y15
	UNWORD(0)
	UNWORD(32)
	UNWORD(64)
	UNWORD(96)
	UNWORD(128)
	UNWORD(160)
	UNWORD(192)
	UNWORD(224)
	VZEROUPPER
	RET
