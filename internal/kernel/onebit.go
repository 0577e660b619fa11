package kernel

// Fused MQE 1-bit kernels. The staged baseline (quant.QuantizeOneBitInto
// plus ErrorAccumulator and DequantizeOneBitInto) sweeps tensor memory
// four times per step: accumulate, quantize (bit-pack + partition sums),
// dequantize into scratch, residual subtract. The two kernels here fuse
// the sweeps pairwise so the whole compress side touches tensor memory
// exactly twice, matching the ternary pipeline's shape:
//
//	pass 1  AccumulateSignStats  buf += in fused with the sign bit-pack
//	                             and the two partition sums
//	pass 2  OneBitResidual       buf[i] -= (bit ? mPos : mNeg), the
//	                             dequantize+residual fused
//
// The partition means are float64 sums taken in element-index order, and
// float64 addition is not associative, so pass 1 keeps that order.

// AccumulateSignStats is the fused 1-bit compress pass 1: buf += in, the
// sign bit of each updated element packed into bits (bit=1 for v >= 0,
// little-endian within each byte), and the two partition sums accumulated
// in element order. bits must hold (len(buf)+7)/8 bytes; it is cleared
// first. The per-element operations and their order are exactly the
// staged accumulate-then-QuantizeOneBitInto sequence, so bits, both sums,
// and the residual state are bit-identical to the staged composition.
func AccumulateSignStats(buf, in []float32, bits []byte) (mPos, mNeg float32) {
	if len(buf) != len(in) {
		panic("kernel: AccumulateSignStats length mismatch")
	}
	for i := range bits {
		bits[i] = 0
	}
	notePass("accumulate+signstats", len(buf))
	var sumPos, sumNeg float64
	var nPos, nNeg int
	buf = buf[:len(in)]
	for i, v := range in {
		s := buf[i] + v
		buf[i] = s
		if s >= 0 {
			bits[i>>3] |= 1 << (uint(i) & 7)
			sumPos += float64(s)
			nPos++
		} else {
			sumNeg += float64(s)
			nNeg++
		}
	}
	if nPos > 0 {
		mPos = float32(sumPos / float64(nPos))
	}
	if nNeg > 0 {
		mNeg = float32(sumNeg / float64(nNeg))
	}
	return mPos, mNeg
}

// OneBitResidual is the fused 1-bit compress pass 2: for every element,
// buf[i] -= mPos when its transmitted bit is set, mNeg otherwise — the
// staged dequantize-into-scratch followed by the residual subtract,
// without the scratch tensor.
func OneBitResidual(buf []float32, bits []byte, mPos, mNeg float32) {
	notePass("onebit-residual", len(buf))
	for i := range buf {
		if bits[i>>3]&(1<<(uint(i)&7)) != 0 {
			buf[i] -= mPos
		} else {
			buf[i] -= mNeg
		}
	}
}

// Add is the plain accumulate buf += in, for codecs whose quantization
// statistics cannot fuse with the accumulation sweep (the top-k sparsifier
// estimates its threshold from a sample, not a reduction).
func Add(buf, in []float32) {
	if len(buf) != len(in) {
		panic("kernel: Add length mismatch")
	}
	notePass("accumulate", len(buf))
	buf = buf[:len(in)]
	for i, v := range in {
		buf[i] += v
	}
}
