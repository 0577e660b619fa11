package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeMQE1Bit, decodeOneBitAdd)
}

// oneBitCompressor is the "MQE 1-bit int" baseline (§5.1): 1-bit SGD-style
// quantization with minimum squared quantization error and error feedback.
// Wire format: [scheme][4B MPos][4B MNeg][packed sign bits].
//
// The encode runs on the fused kernels: kernel.AccumulateSignStats folds
// the error-accumulation sweep, the sign bit-pack, and the partition sums
// into pass 1 (serial — the MQE means are order-dependent float64 sums),
// then kernel.OneBitResidual fuses dequantize+residual into pass 2. Two
// passes over tensor memory instead of the staged four; wires and residual state stay bit-identical to the staged
// quant.QuantizeOneBitInto composition, which remains the reference.
type oneBitCompressor struct {
	shape []int
	n     int
	acc   *quant.ErrorAccumulator // error-feedback buffer (checkpointed state)
	bits  []byte                  // sign bit-pack scratch, reused across steps
}

func newOneBitCompressor(shape []int) *oneBitCompressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &oneBitCompressor{
		shape: append([]int(nil), shape...),
		n:     n,
		acc:   quant.NewErrorAccumulator(shape...),
		bits:  make([]byte, (n+7)/8),
	}
}

func (c *oneBitCompressor) Scheme() Scheme { return SchemeMQE1Bit }
func (c *oneBitCompressor) Name() string   { return "MQE 1-bit int" }

//3lc:noalloc
func (c *oneBitCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	buf := c.acc.Buffer().Data()
	mPos, mNeg := kernel.AccumulateSignStats(buf, in.Data(), c.bits)
	dst = append(dst, byte(SchemeMQE1Bit))
	dst = appendF32(dst, mPos)
	dst = appendF32(dst, mNeg)
	dst = append(dst, c.bits...)
	kernel.OneBitResidual(buf, c.bits, mPos, mNeg)
	return dst
}

// decodeOneBitAdd accumulates the sign-bit payload in one pass (every
// element decodes to mPos or mNeg, so the add is per-element identical to
// decode-then-add); the length check runs before dst is touched.
func decodeOneBitAdd(payload []byte, dst *tensor.Tensor) error {
	d := dst.Data()
	want := 8 + (len(d)+7)/8
	if len(payload) != want {
		return fmt.Errorf("compress: 1-bit payload %d bytes, want %d", len(payload), want)
	}
	mPos := getF32(payload)
	mNeg := getF32(payload[4:])
	bits := payload[8:]
	for i := range d {
		if bits[i>>3]&(1<<(uint(i)&7)) != 0 {
			d[i] += mPos
		} else {
			d[i] += mNeg
		}
	}
	return nil
}
