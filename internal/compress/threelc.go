package compress

import (
	"fmt"

	"threelc/internal/encode"
	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeThreeLC, decodeTernary)
	RegisterDecoder(SchemeStoch3QE, decodeTernary)
	RegisterAddDecoder(SchemeThreeLC, decodeTernaryAdd)
	RegisterAddDecoder(SchemeStoch3QE, decodeTernaryAdd)
}

// Ternary wire format, shared by 3LC and the stochastic baseline:
//
//	[1B scheme][4B M][1B flags][payload]
//
// flags is one of two values: 0, plain quartic data of exactly ceil(n/5)
// bytes, or ternaryZRE, zero-run encoded quartic data (encode.ZeroRunEncode).
// Bit 0 alone marked the retired spelling whose 255 meant 14 groups with no
// uvarint after it (e.g. a wire written by a build from before the long-run
// token): the same bytes parse differently now, so it is refused.
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
	case ternaryFlagZRE:
		return false, fmt.Errorf("compress: ternary flags byte %#02x is the retired capped zero-run spelling; re-encode the wire", flags)
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
// seven-sweep pipeline. Pass 1 (kernel.BlockMax.AccumulateMaxAbs) folds
// the input into the error buffer while reducing max|buf| and recording
// the buffer's per-block |max|; pass 2 (kernel.BlockMax.EncodeTernary)
// quantizes the blocks that can hold a non-zero digit, keeps the residual
// in the buffer, and writes quartic/zero-run wire bytes directly. No
// intermediate ternary tensor or dequantization scratch exists.
type threeLCCompressor struct {
	shape    []int
	n        int
	sparsity float64
	zeroRun  bool

	acc *quant.ErrorAccumulator
	blk kernel.BlockMax // acc's block index, recorded by pass 1, consulted by pass 2
}

func newThreeLCCompressor(shape []int, sparsity float64, zeroRun bool) *threeLCCompressor {
	if sparsity < quant.MinSparsity || sparsity >= quant.MaxSparsity {
		panic(fmt.Sprintf("compress: sparsity multiplier %v outside [1,2)", sparsity))
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &threeLCCompressor{
		shape:    append([]int(nil), shape...),
		n:        n,
		sparsity: sparsity,
		zeroRun:  zeroRun,
		acc:      quant.NewErrorAccumulator(shape...),
	}
}

func (c *threeLCCompressor) Scheme() Scheme { return SchemeThreeLC }

func (c *threeLCCompressor) Name() string {
	if !c.zeroRun {
		return fmt.Sprintf("3LC (s=%.2f, no ZRE)", c.sparsity)
	}
	return fmt.Sprintf("3LC (s=%.2f)", c.sparsity)
}

func (c *threeLCCompressor) Compress(in *tensor.Tensor) []byte {
	return c.CompressInto(in, nil)
}

// CompressInto runs the Figure-3 pipeline in exactly two passes over
// tensor memory: pass 1 accumulates the input into the error buffer fused
// with the |max| reduction (step 1 of Fig. 3 + Eq. 1), pass 2 fuses
// quantize → local-dequantize → residual-update → quartic-pack →
// zero-run-emit (steps 2, a, b, 3, 4), appending the wire message to dst.
// Both passes run on the calling goroutine; a node runs its tensors'
// contexts concurrently instead (package ps).
//
//3lc:noalloc
func (c *threeLCCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	buf := c.acc.Buffer().Data()
	return c.encodeAccumulated(c.blk.AccumulateMaxAbs(buf, in.Data()), dst)
}

// AccData exposes the error-accumulation buffer and its block index for
// producers that fuse their own final write sweep with compress pass 1
// (PreAccumulator).
func (c *threeLCCompressor) AccData() ([]float32, *kernel.BlockMax) {
	return c.acc.Buffer().Data(), &c.blk
}

// CompressPreAccumulated appends the wire for a step whose state change
// the caller already folded into AccData (reporting maxAbs reduced
// exactly like kernel.AccumulateMaxAbs, and recording the block index):
// compress pass 1 has effectively been absorbed into the producer's sweep,
// leaving only the fused encode pass here. Wires and residuals are
// bit-identical to CompressInto on the same state change.
func (c *threeLCCompressor) CompressPreAccumulated(maxAbs float32, dst []byte) []byte {
	return c.encodeAccumulated(maxAbs, dst)
}

// encodeAccumulated is compress pass 2 plus the wire header: quantize the
// accumulated buffer against max|buf|·s and emit quartic/zero-run bytes.
func (c *threeLCCompressor) encodeAccumulated(maxAbs float32, dst []byte) []byte {
	buf := c.acc.Buffer().Data()
	m := float64(maxAbs) * c.sparsity
	dst = append(dst, byte(SchemeThreeLC))
	dst = appendF32(dst, float32(m))
	if c.zeroRun {
		dst = append(dst, ternaryZRE)
	} else {
		dst = append(dst, 0)
	}
	return c.blk.EncodeTernary(buf, m, c.zeroRun, dst)
}

// ErrorNorm exposes the squared norm of the accumulated error (for tests
// and the ablation benchmarks).
func (c *threeLCCompressor) ErrorNorm() float64 {
	return c.acc.Buffer().SquaredNorm()
}

// decodeTernary reverses the ternary wire format into dst in a single
// LUT-driven pass: kernel.DecodeTernary streams the wire bytes straight
// into the destination floats, expanding zero runs and applying the scale
// as it goes — no zero-run expansion scratch or ternary intermediate.
func decodeTernary(payload []byte, dst *tensor.Tensor) error {
	if len(payload) < 5 {
		return fmt.Errorf("compress: ternary payload too short (%d bytes)", len(payload))
	}
	zre, err := ternaryZeroRun(payload[5-1])
	if err != nil {
		return err
	}
	if err := kernel.DecodeTernary(payload[5:], zre, getF32(payload), dst.Data()); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	return nil
}

// decodeTernaryAdd is the aggregation-side path into a plain destination:
// addTernary with every block live.
func decodeTernaryAdd(payload []byte, dst *tensor.Tensor) error {
	return addTernary(payload, dst, nil)
}

// addTernary decode-adds a ternary payload into dst, a sum live records:
// kernel.LiveBlocks.DecodeTernaryAdd accumulates M·q straight into dst in
// one LUT-driven pass, validating the payload before the first element is
// touched (dst is a live aggregation buffer).
func addTernary(payload []byte, dst *tensor.Tensor, live *kernel.LiveBlocks) error {
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
