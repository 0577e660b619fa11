package compress

import (
	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// stochCompressor is the "Stoch 3-value + QE" baseline (§5.1): stochastic
// ternary quantization in the style of TernGrad (without gradient clipping)
// combined with quartic encoding for a 1.6-bit representation. Stochastic
// quantization is unbiased, so — as in the paper, and unlike 3LC — it uses
// no error-accumulation buffer. It shares the ternary wire format with 3LC
// but never applies zero-run encoding.
//
// Like 3LC it runs as two fused passes: a |max| reduction and a fused
// stochastic-quantize + quartic-pack loop, whose RNG draws follow element
// order.
type stochCompressor struct {
	shape []int
	n     int
	rng   *tensor.RNG
}

func newStochCompressor(shape []int, seed uint64) *stochCompressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &stochCompressor{
		shape: append([]int(nil), shape...),
		n:     n,
		rng:   tensor.NewRNG(seed ^ 0x53746f6368335651), // "Stoch3VQ"
	}
}

func (c *stochCompressor) Scheme() Scheme { return SchemeStoch3QE }
func (c *stochCompressor) Name() string   { return "Stoch 3-value + QE" }

//3lc:noalloc
func (c *stochCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	m := float64(kernel.MaxAbs(in.Data()))
	dst = append(dst, byte(SchemeStoch3QE))
	dst = appendF32(dst, float32(m))
	dst = append(dst, 0) // no ZRE
	return kernel.EncodeStoch(in.Data(), m, c.rng, dst)
}
