package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func init() {
	// Local-steps wires carry raw floats, exactly like the uncompressed
	// baseline; only the scheme byte differs. (The empty non-transmitting
	// wire never reaches the registry: DecompressAddInto special-cases
	// zero-length messages, and DecompressInto zeroes and adds them.)
	RegisterDecoder(SchemeLocalSteps, decodeRawAdd)
}

// localStepsCompressor is the "2 local steps" baseline (§5.1): state
// changes are transmitted only every Interval-th step; unsent updates are
// accumulated locally and sent (uncompressed) at the next transmitting
// step. On a non-transmitting step nothing is appended — the empty wire
// decodes to all zeros — and no bytes cross the network.
type localStepsCompressor struct {
	shape    []int
	n        int
	interval int
	step     int
	acc      *quant.ErrorAccumulator
}

func newLocalStepsCompressor(shape []int, interval int) *localStepsCompressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &localStepsCompressor{
		shape:    append([]int(nil), shape...),
		n:        n,
		interval: interval,
		acc:      quant.NewErrorAccumulator(shape...),
	}
}

func (c *localStepsCompressor) Scheme() Scheme { return SchemeLocalSteps }
func (c *localStepsCompressor) Name() string {
	return fmt.Sprintf("%d local steps", c.interval)
}

//3lc:noalloc
func (c *localStepsCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	sum := c.acc.Accumulate(in)
	c.step++
	if c.step%c.interval != 0 {
		return dst // accumulate only; nothing on the wire this step
	}
	dst = append(dst, byte(SchemeLocalSteps))
	dst = kernel.AppendRaw(dst, sum.Data())
	// Everything accumulated was sent; clear the buffer.
	c.acc.Reset()
	return dst
}
