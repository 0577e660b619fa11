package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemeInt8, decodeInt8)
	RegisterAddDecoder(SchemeInt8, decodeInt8Add)
}

// int8Compressor is the "8-bit int" baseline (§5.1): 255-level quantization
// with no error accumulation, approximating TPU-internal 8-bit quantization.
// Wire format: [scheme][4B M][n bytes int8].
//
// The encode runs on the fused kernels: a |max| reduction, then
// kernel.EncodeInt8 quantizing straight into the wire buffer — two passes
// over tensor memory. The staged quant.QuantizeInt8Into remains the
// bit-identical reference.
type int8Compressor struct {
	shape []int
	n     int
}

func (c *int8Compressor) Scheme() Scheme { return SchemeInt8 }
func (c *int8Compressor) Name() string   { return "8-bit int" }

func (c *int8Compressor) Compress(in *tensor.Tensor) []byte {
	return c.CompressInto(in, nil)
}

//3lc:noalloc
func (c *int8Compressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	if in.Len() != c.n {
		panic("compress: input size mismatch")
	}
	m := float64(kernel.MaxAbs(in.Data()))
	dst = append(dst, byte(SchemeInt8))
	dst = appendF32(dst, float32(m))
	return kernel.EncodeInt8(in.Data(), m, dst)
}

func decodeInt8(payload []byte, dst *tensor.Tensor) error {
	d := dst.Data()
	if len(payload) != 4+len(d) {
		return fmt.Errorf("compress: int8 payload %d bytes, want %d", len(payload), 4+len(d))
	}
	m := getF32(payload)
	scale := m / 127
	for i := range d {
		d[i] = scale * float32(int8(payload[4+i]))
	}
	return nil
}

// decodeInt8Add accumulates the int8 payload in one pass: dst[i] +=
// scale·q is the exact per-element add of decode-then-add; the length
// check rejects malformed payloads before dst is touched.
func decodeInt8Add(payload []byte, dst *tensor.Tensor) error {
	d := dst.Data()
	if len(payload) != 4+len(d) {
		return fmt.Errorf("compress: int8 payload %d bytes, want %d", len(payload), 4+len(d))
	}
	m := getF32(payload)
	scale := m / 127
	for i := range d {
		d[i] += scale * float32(int8(payload[4+i]))
	}
	return nil
}
