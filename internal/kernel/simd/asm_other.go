//go:build !amd64

package simd

// HasAsm reports whether the assembly fast paths are compiled into this
// binary; on non-amd64 the dispatch never selects the asm tier, so these
// stubs are unreachable.
const HasAsm = false

func QuantPackBlocks(buf []float32, out []byte, blocks int, tpos, dqNeg, dqZero, dqPos float32) {
	panic("simd: no assembly kernels on this architecture")
}

func AddScaledLiteralsAsm(tab *[256][5]float32, body []byte, dst []float32) int {
	panic("simd: no assembly kernels on this architecture")
}

func AccMaxAbsAsm(buf, in []float32) float32 {
	panic("simd: no assembly kernels on this architecture")
}

func MaxAbsAsm(buf []float32) float32 {
	panic("simd: no assembly kernels on this architecture")
}

func SGDStepAsm(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	panic("simd: no assembly kernels on this architecture")
}

func SGDStepDeltaAsm(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
	panic("simd: no assembly kernels on this architecture")
}

func SGDStepRawAsm(w, v, gs []float32, raw []byte, gscale, wd, mom, lr float32) {
	panic("simd: no assembly kernels on this architecture")
}

func RawPutAsm(dst []byte, src []float32) {
	panic("simd: no assembly kernels on this architecture")
}

func RawGetAsm(dst []float32, src []byte) {
	panic("simd: no assembly kernels on this architecture")
}

func RawAddAsm(dst []float32, src []byte) {
	panic("simd: no assembly kernels on this architecture")
}

func RawFirstAddAsm(dst []float32, src []byte) {
	panic("simd: no assembly kernels on this architecture")
}

func PlanesPackAsm(src *[64]float32, out []byte, pb int, valid uint64) int {
	panic("simd: no assembly kernels on this architecture")
}

func PlanesUnpackAsm(planes []byte, rank *[32]byte, pb int, base uint32, out *[256]byte) {
	panic("simd: no assembly kernels on this architecture")
}
