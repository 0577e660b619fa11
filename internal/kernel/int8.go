package kernel

import "math"

// Fused 8-bit integer quantization. The staged reference
// (quant.QuantizeInt8Into) sweeps the tensor twice past the |max|
// reduction — quantize into an int8 scratch slice, then a byte-copy into
// the wire buffer — which left the "8-bit int" baseline an order of
// magnitude behind the ternary codecs. EncodeInt8 writes the wire bytes
// directly (one pass after the reduction).

// EncodeInt8 quantizes data onto 255 levels spanning [-m, +m] (the
// paper's TPU-style "8-bit int" baseline) and appends one byte per
// element to dst. m is the float64 |max| of the data; the per-element
// arithmetic — round(v·127/m) in float64, clamped to ±127, converted
// through int8 — is exactly the staged quant.QuantizeInt8Into sequence,
// so the emitted bytes are bit-identical to quantize-then-copy. m == 0
// emits all zero bytes without a pass over tensor memory, like the staged
// quantizer's zero fill.
func EncodeInt8(data []float32, m float64, dst []byte) []byte {
	n := len(data)
	base := len(dst)
	dst = growCap(dst, n)
	out := dst[base : base+n]
	if m == 0 {
		for i := range out {
			out[i] = 0
		}
		return dst[:base+n]
	}
	notePass("int8-quantize", n)
	scale := 127 / m
	for i, v := range data {
		out[i] = quantInt8(v, scale)
	}
	return dst[:base+n]
}

// quantInt8 quantizes one element with the staged rounding and clamping.
func quantInt8(v float32, scale float64) byte {
	q := math.Round(float64(v) * scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return byte(int8(q))
}
