package kernel

// Fused top-k sparsification kernel. The staged baseline runs three full
// sweeps after the accumulate: select (bitmap + value gather), reconstruct
// the dense transmission into a scratch tensor, and the residual subtract.
// SparsifyResidual collapses them into one pass with no scratch tensor, so
// with Add as pass 1 the whole sparsifying compress side touches tensor
// memory exactly twice.

// SparsifyResidual runs the fused select/emit/residual pass over buf:
// every element with |v| >= thr and v != 0 is selected — its bit set in
// mask (little-endian within each byte, the encode.Bitmap layout), its
// value appended to vals, and buf[i] replaced by v - v, the residual of
// transmitting v (NaN for selected infinities, exactly like the staged
// reconstruct-then-subtract). Unselected elements are left untouched:
// the staged pass computes v -= 0 for them, and IEEE subtraction of +0
// is bitwise identity for every float32 including -0 and NaN, so skipping
// the store is bit-identical. mask must hold (len(buf)+7)/8 zeroed bytes.
// The appended vals slice is returned.
func SparsifyResidual(buf []float32, thr float32, mask []byte, vals []float32) []float32 {
	notePass("sparsify+residual", len(buf))
	for i, v := range buf {
		a := v
		if a < 0 {
			a = -a
		}
		if a >= thr && v != 0 {
			mask[i>>3] |= 1 << (uint(i) & 7)
			vals = append(vals, v)
			buf[i] = v - v
		}
	}
	return vals
}
