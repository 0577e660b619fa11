package compress

import (
	"fmt"
	"math/bits"

	"threelc/internal/encode"
	"threelc/internal/kernel"
	"threelc/internal/quant"
	"threelc/internal/sparse"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeTopK, decodeTopK)
}

// topKCompressor is the "25% / 5% sparsification" baseline (§5.1): the
// largest-magnitude fraction of buffered state changes is transmitted with
// a 1-bit-per-element bitmap plus 4 bytes per selected value; unsent
// changes stay in the error-accumulation buffer.
// Wire format: [scheme][bitmap ceil(n/8)B][4B per selected value].
//
// The encode runs on the fused kernels: kernel.Add is the
// error-accumulation sweep (pass 1), then — after the sampled threshold
// estimate, which touches only the sample — kernel.SparsifyResidual fuses
// select, value emission, and the residual subtract into one pass 2 with
// no dense scratch tensor. Two passes over tensor memory instead of
// the staged four; wires and residual state stay bit-identical to the
// staged sparse.SparsifyInto composition, which remains the reference.
type topKCompressor struct {
	shape []int
	n     int
	sp    *sparse.Sparsifier
	acc   *quant.ErrorAccumulator
	sel   sparse.Selection // selection scratch, reused across steps
}

func newTopKCompressor(shape []int, fraction float64, seed uint64) *topKCompressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &topKCompressor{
		shape: append([]int(nil), shape...),
		n:     n,
		sp:    sparse.NewSparsifier(fraction, tensor.NewRNG(seed^0x546f704b)), // "TopK"
		acc:   quant.NewErrorAccumulator(shape...),
	}
}

func (c *topKCompressor) Scheme() Scheme { return SchemeTopK }
func (c *topKCompressor) Name() string {
	return fmt.Sprintf("%d%% sparsification", int(c.sp.Fraction*100+0.5))
}

func (c *topKCompressor) Compress(in *tensor.Tensor) []byte {
	return c.CompressInto(in, nil)
}

//3lc:noalloc
func (c *topKCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	buf := c.acc.Buffer().Data()
	kernel.Add(buf, in.Data())
	thr := c.sp.Threshold(buf)
	if c.sel.Mask == nil || c.sel.Mask.Len() != c.n {
		c.sel.Mask = encode.NewBitmap(c.n)
	} else {
		c.sel.Mask.Reset()
	}
	c.sel.Values = c.sel.Values[:0]
	c.sel.Shape = append(c.sel.Shape[:0], in.Shape()...)
	c.sel.Values = kernel.SparsifyResidual(buf, thr, c.sel.Mask.Bytes(), c.sel.Values)
	return appendSelection(dst, byte(SchemeTopK), &c.sel)
}

// appendSelection appends the top-k scheme's bitmap wire layout.
func appendSelection(dst []byte, scheme byte, sel *sparse.Selection) []byte {
	dst = append(dst, scheme)
	dst = append(dst, sel.Mask.Bytes()...)
	return kernel.AppendRaw(dst, sel.Values)
}

func decodeTopK(payload []byte, dst *tensor.Tensor) error {
	d := dst.Data()
	bmLen := encode.BitmapSizeBytes(len(d))
	if len(payload) < bmLen {
		return fmt.Errorf("compress: top-k payload %d bytes, bitmap alone needs %d", len(payload), bmLen)
	}
	bm := payload[:bmLen]
	vals := payload[bmLen:]
	if len(vals)%4 != 0 {
		return fmt.Errorf("compress: top-k value bytes %d not a multiple of 4", len(vals))
	}
	count := 0
	for _, b := range bm {
		count += bits.OnesCount8(b)
	}
	if count*4 != len(vals) {
		return fmt.Errorf("compress: top-k bitmap selects %d values, payload has %d", count, len(vals)/4)
	}
	dst.Zero()
	vi := 0
	for i := range d {
		if bm[i>>3]&(1<<(uint(i)&7)) != 0 {
			d[i] = getF32(vals[4*vi:])
			vi++
		}
	}
	return nil
}
