#include "textflag.h"

// The ternary digit of v against threshold t>0 is
//
//	q = 1 - (v >= t) + (v <= -t)   with the compares as 0/-1 masks,
//
// the selected dequantization level is dqPos/dqNeg/dqZero by the same
// masks, and the packed quartic byte of digits d0..d4 is
// 81*d0 + 27*d1 + 9*d2 + 3*d3 + d4.
//
// The pack uses a multiply trick: loading 8 little-endian digit bytes as
// a uint64 x and multiplying by
//
//	C = 81<<32 | 27<<24 | 9<<16 | 3<<8 | 1 = 0x511B090301
//
// makes byte 4 of x*C exactly 81*d0+27*d1+9*d2+3*d3+d4: every partial
// product below byte 4 sums to < 256 for digits <= 2 (worst case 80), so
// no carry reaches byte 4, and bytes beyond d4 only contribute to bytes
// >= 5. One MOVQ/IMULQ/SHRQ/MOVB per group replaces 5 scalar multiplies.

// func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)
//
// Register plan per 8-float vector:
//	Y0 = v            Y1 = mask(v >= tpos)    Y2 = mask(v <= tneg)
//	Y3 = digits       Y4 = dequant selection  Y5 = residual
// Constants: Y15=tpos Y14=tneg Y13=dqNeg Y12=dqZero Y11=dqPos Y10=int32(1)
// Digit bytes for one block (8 groups = 5 vectors) land in 40 stack
// bytes; the combine loop folds each 5-byte run into one wire byte.
TEXT ·quantPackBlocks(SB), NOSPLIT, $48-44
	MOVQ buf+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ blocks+16(FP), CX
	VBROADCASTSS tpos+24(FP), Y15
	VBROADCASTSS tneg+28(FP), Y14
	VBROADCASTSS dqNeg+32(FP), Y13
	VBROADCASTSS dqZero+36(FP), Y12
	VBROADCASTSS dqPos+40(FP), Y11
	VPCMPEQD Y10, Y10, Y10
	VPSRLD $31, Y10, Y10
	MOVQ $0x511B090301, R9

blockloop:
	TESTQ CX, CX
	JZ done

	// vector 0: elements 0..7 -> digit bytes 0..7 on the stack
	VMOVUPS (SI), Y0
	VCMPPS $13, Y15, Y0, Y1    // GE_OS: false on NaN, like Go >=
	VCMPPS $2, Y14, Y0, Y2     // LE_OS
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5          // residual = v - dq[q], v as operand 1
	VMOVUPS Y5, (SI)
	VPACKSSDW Y3, Y3, Y6       // dwords -> words, per 128-bit lane
	VPERMQ $0x08, Y6, Y6       // gather the two low-qword word runs
	VPACKUSWB X6, X6, X6       // words -> bytes
	VMOVQ X6, 0(SP)

	// vector 1
	VMOVUPS 32(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 32(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 8(SP)

	// vector 2
	VMOVUPS 64(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 64(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 16(SP)

	// vector 3
	VMOVUPS 96(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 96(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 24(SP)

	// vector 4
	VMOVUPS 128(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 128(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 32(SP)

	// combine: groups g=0..7 read 8 digit bytes at 5g, emit byte 4 of x*C
	MOVQ 0(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, (DI)
	MOVQ 5(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 1(DI)
	MOVQ 10(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 2(DI)
	MOVQ 15(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 3(DI)
	MOVQ 20(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 4(DI)
	MOVQ 25(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 5(DI)
	MOVQ 30(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 6(DI)
	MOVQ 35(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 7(DI)

	ADDQ $160, SI
	ADDQ $8, DI
	DECQ CX
	JMP blockloop

done:
	VZEROUPPER
	RET

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

// func setScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int
//
// Write form: dst[0:5] = tab[b].
TEXT ·setScaledLiteralsAsm(SB), NOSPLIT, $0-40
	MOVQ tab+0(FP), R8
	MOVQ body+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	XORQ DX, DX

setloop:
	CMPQ DX, CX
	JGE setdone
	MOVBLZX (SI)(DX*1), AX
	CMPL AX, $242
	JA setdone
	LEAQ (AX)(AX*4), AX
	SHLQ $2, AX
	VMOVUPS (R8)(AX*1), X0
	VMOVSS 16(R8)(AX*1), X1
	VMOVUPS X0, (DI)
	VMOVSS X1, 16(DI)
	ADDQ $20, DI
	INCQ DX
	JMP setloop

setdone:
	MOVQ DX, ret+32(FP)
	RET

// func accMaxAbsAsm(buf, in *float32, n int) float32
//
// Compress pass 1: buf[i] += in[i] with max|buf| reduced in the same
// sweep, 32 floats per iteration over four independent max chains (so the
// loop streams at load/store rate instead of serializing on VMAXPS
// latency), then 8 at a time, then a scalar tail. buf is operand 1 of
// every add, like the literal cores. |s| is the sign-bit mask
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

// func fusedSGDStepAsm(w, v, gs, acc *float32, n int, gscale, wd, mom, lr float32) float32
//
// The parameter server's fused optimizer sweep, 8 elements per iteration
// then a scalar tail, each element exactly the scalar reference's
// sequence of individually rounded float32 operations (separate multiply,
// add and subtract — never FMA, whose single rounding would change bits):
//
//	g   = gs·gscale + wd·old      old = w
//	vv  = mom·v + g               v   = vv
//	nw  = old − lr·vv             w   = nw
//	sum = acc + (nw − old)        acc = sum
//	m   = max(m, |sum|)
//
// Constants: Y12=gscale Y13=wd Y14=mom Y15=lr Y11=abs mask, Y10 = running
// max (second VMAXPS source; see accMaxAbsAsm for why NaN loses).
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
	VMOVUPS (R8), Y0           // old
	VMOVUPS (R10), Y1
	VMULPS Y12, Y1, Y1         // gs*gscale
	VMULPS Y0, Y13, Y2         // wd*old
	VADDPS Y2, Y1, Y1          // g
	VMOVUPS (R9), Y3
	VMULPS Y3, Y14, Y3         // mom*v
	VADDPS Y1, Y3, Y3          // vv
	VMOVUPS Y3, (R9)
	VMULPS Y3, Y15, Y4         // lr*vv
	VSUBPS Y4, Y0, Y5          // nw = old - lr*vv
	VMOVUPS Y5, (R8)
	VSUBPS Y0, Y5, Y5          // nw - old
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
	VMOVSS (R8), X0
	VMOVSS (R10), X1
	VMULSS X12, X1, X1
	VMULSS X0, X13, X2
	VADDSS X2, X1, X1
	VMOVSS (R9), X3
	VMULSS X3, X14, X3
	VADDSS X1, X3, X3
	VMOVSS X3, (R9)
	VMULSS X3, X15, X4
	VSUBSS X4, X0, X5
	VMOVSS X5, (R8)
	VSUBSS X0, X5, X5
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
