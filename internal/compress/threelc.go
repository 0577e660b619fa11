package compress

import (
	"fmt"

	"threelc/internal/encode"
	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeThreeLC, decodeTernaryAdd)
	RegisterDecoder(SchemeStoch3QE, decodeTernaryAdd)
}

// Ternary wire format, shared by 3LC and the stochastic baseline:
//
//	[1B scheme][4B M][1B flags][payload]
//
// flags is one of two values: 0, plain quartic data of exactly ceil(n/5)
// bytes, or ternaryZRE, zero-run encoded quartic data (encode.ZeroRunEncode).
// Every other value is refused; 0x01 is reserved (compress.go).
const (
	ternaryFlagZRE     = 1 << 0
	ternaryFlagLongRun = 1 << 1
	ternaryZRE         = ternaryFlagZRE | ternaryFlagLongRun
)

// ternaryZeroRun reads a ternary header's flags byte.
func ternaryZeroRun(flags byte) (zre bool, err error) {
	switch flags {
	case 0, ternaryZRE:
		return flags != 0, nil
	}
	return false, fmt.Errorf("compress: ternary flags byte %#02x has unknown bits (want 0 or %#02x)", flags, ternaryZRE)
}

// PaperWireLen is the length wire would have had with §3.3's own zero-run
// code (encode.ZeroRunPaperLen): the number to set beside the paper's. Any
// wire but a well-formed zero-run encoded 3LC message — another scheme,
// the No-ZRE ablation — is its own length.
func PaperWireLen(wire []byte) int {
	if len(wire) >= 6 && Scheme(wire[0]) == SchemeThreeLC && wire[5] == ternaryZRE {
		if n := encode.ZeroRunPaperLen(wire[6:]); n >= 0 {
			return 6 + n
		}
	}
	return len(wire)
}

// threeLCCompressor is the full 3LC design: error accumulation, 3-value
// quantization with sparsity multiplication, quartic encoding, and
// (optionally, for the "No ZRE" ablation) zero-run encoding — run as the
// two fused kernel passes of internal/kernel rather than the staged
// seven-sweep pipeline. Pass 1 (kernel.Blocks.AccumulateMaxAbs) folds
// the input into the error buffer while reducing max|buf| and recording
// the buffer's per-block |max|; pass 2 (kernel.Blocks.EncodeTernary)
// quantizes the blocks that can hold a non-zero digit, keeps the residual
// in the buffer, and writes quartic/zero-run wire bytes directly. No
// intermediate ternary tensor or dequantization scratch exists.
type threeLCCompressor struct {
	shape    []int
	n        int
	sparsity float64
	zeroRun  bool

	acc []float32     // the error-accumulation buffer: the context's own, or the caller's (NewThreeLCOver)
	blk kernel.Blocks // acc's block maxima, recorded by pass 1, consulted by pass 2
}

// newThreeLCCompressor builds a 3LC context at sparsity s (0 means 1)
// whose error buffer is acc's memory, zeroed, or a buffer of its own for a
// nil acc.
func newThreeLCCompressor(shape []int, sparsity float64, zeroRun bool, acc *tensor.Tensor) *threeLCCompressor {
	if sparsity == 0 {
		sparsity = 1
	}
	if sparsity < quant.MinSparsity || sparsity >= quant.MaxSparsity {
		panic(fmt.Sprintf("compress: sparsity multiplier %v outside [1,2)", sparsity))
	}
	if acc == nil {
		acc = tensor.New(shape...)
	}
	acc.Zero()
	return &threeLCCompressor{
		shape:    append([]int(nil), shape...),
		n:        acc.Len(),
		sparsity: sparsity,
		zeroRun:  zeroRun,
		acc:      acc.Data(),
	}
}

// NewThreeLCOver builds a 3LC compression context (opt.Sparsity and
// opt.ZeroRun as New reads them) whose error-accumulation buffer is buf
// itself: the one allocation of a tensor whose owner forms e + g in place.
// buf is zeroed here, so the context starts at e = 0. The context is a
// PreAccumulator whose AccData is buf's memory: its owner adds each step's
// state change into buf, reduces max|buf| with the block maxima — as it
// writes buf (kernel.Blocks.MaxAbsSpan, a Linear's backward) or in one
// read-only sweep after (kernel.Blocks.MaxAbs) — and calls
// CompressPreAccumulated, which leaves the residual in buf. CompressInto
// folds its input into buf as any 3LC context does, so it must not be
// handed buf itself. A ps.Worker builds its 3LC push contexts over its
// replica's gradient tensors this way.
func NewThreeLCOver(buf *tensor.Tensor, opt Options) Compressor {
	return newThreeLCCompressor(buf.Shape(), opt.Sparsity, opt.ZeroRun, buf)
}

func (c *threeLCCompressor) Scheme() Scheme { return SchemeThreeLC }

func (c *threeLCCompressor) Name() string {
	if !c.zeroRun {
		return fmt.Sprintf("3LC (s=%.2f, no ZRE)", c.sparsity)
	}
	return fmt.Sprintf("3LC (s=%.2f)", c.sparsity)
}

// CompressInto runs the Figure-3 pipeline in exactly two passes over
// tensor memory: pass 1 accumulates the input into the error buffer fused
// with the |max| reduction (step 1 of Fig. 3 + Eq. 1), pass 2 fuses
// quantize → local-dequantize → residual-update → quartic-pack →
// zero-run-emit (steps 2, a, b, 3, 4), appending the wire message to dst.
// Both passes run on the calling goroutine, and so does a node's loop over
// its tensors' contexts (package ps).
//
//3lc:noalloc
func (c *threeLCCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	return c.encodeAccumulated(&c.blk, c.blk.AccumulateMaxAbs(c.acc, in.Data()), dst)
}

// AccData exposes the error-accumulation buffer for producers that fuse
// their own final write sweep with compress pass 1 (PreAccumulator).
func (c *threeLCCompressor) AccData() []float32 { return c.acc }

// CompressPreAccumulated appends the wire for a step whose state change
// the caller already folded into AccData (reporting maxAbs reduced
// exactly like kernel.AccumulateMaxAbs, and recording the block maxima in
// blk): compress pass 1 has effectively been absorbed into the producer's
// sweep, leaving only the fused encode pass here, consulting blk. Wires
// and residuals are bit-identical to CompressInto on the same state
// change.
func (c *threeLCCompressor) CompressPreAccumulated(blk *kernel.Blocks, maxAbs float32, dst []byte) []byte {
	return c.encodeAccumulated(blk, maxAbs, dst)
}

// encodeAccumulated is compress pass 2 plus the wire header: quantize the
// accumulated buffer against max|buf|·s, skipping the blocks blk's maxima
// show cannot quantize, and emit quartic/zero-run bytes.
func (c *threeLCCompressor) encodeAccumulated(blk *kernel.Blocks, maxAbs float32, dst []byte) []byte {
	m := float64(maxAbs) * c.sparsity
	dst = append(dst, byte(SchemeThreeLC))
	dst = appendF32(dst, float32(m))
	if c.zeroRun {
		dst = append(dst, ternaryZRE)
	} else {
		dst = append(dst, 0)
	}
	return blk.EncodeTernary(c.acc, m, c.zeroRun, dst)
}

// decodeTernaryAdd is the aggregation-side path into a plain destination:
// addTernary with every block live.
func decodeTernaryAdd(payload []byte, dst *tensor.Tensor) error {
	return addTernary(payload, dst, nil)
}

// addTernary decode-adds a ternary payload into dst, a sum live records:
// kernel.Blocks.DecodeTernaryAdd accumulates M·q straight into dst in
// one LUT-driven pass, validating the payload before the first element is
// touched (dst is a live aggregation buffer).
func addTernary(payload []byte, dst *tensor.Tensor, live *kernel.Blocks) error {
	if len(payload) < 5 {
		return fmt.Errorf("compress: ternary payload too short (%d bytes)", len(payload))
	}
	zre, err := ternaryZeroRun(payload[5-1])
	if err != nil {
		return err
	}
	if err := live.DecodeTernaryAdd(payload[5:], zre, getF32(payload), dst.Data()); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	return nil
}
