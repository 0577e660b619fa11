package kernel

import (
	"fmt"
	"math"
)

// FusedSGDStep is the parameter server's fused optimizer sweep over one
// tensor: average (the scale fused into the gradient read), momentum and
// weight-decay update, weight write, model delta, and the delta's fold
// into the pull compressor's error-accumulation buffer with its |max|
// reduction — compress pass 1 of the pull, absorbed — in a single pass
// over the four streams. Per element:
//
//	g   = gs[i]·gscale + wd·w[i]
//	v[i] = mom·v[i] + g
//	w[i] = w[i] − lr·v[i]
//	acc[i] += w_new − w_old
//
// It returns max|acc| of the updated buffer. Every operation is a
// separately rounded float32 multiply, add or subtract (no tier fuses a
// multiply-add), so w, v and acc are bit-identical across tiers up to NaN
// payloads and the returned maximum exactly (NaN never wins it). All four
// slices must have equal length.
//
//3lc:noalloc
func FusedSGDStep(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	if len(w) != len(v) || len(gs) != len(v) || len(acc) != len(v) {
		panic(fmt.Sprintf("kernel: FusedSGDStep length mismatch w=%d v=%d gs=%d acc=%d", len(w), len(v), len(gs), len(acc)))
	}
	notePass("fused-sgd-step", len(v))
	return sgdStepCore(w, v, gs, acc, gscale, wd, mom, lr)
}

// fusedSGDStepRange is the scalar reference core of FusedSGDStep (and
// the vec tier's: the loop is seven streams of dependent arithmetic, and
// no pure-Go unrolling measured faster).
func fusedSGDStepRange(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	// Reslice to a common length so the compiler drops the per-index
	// bounds checks in the loop.
	w = w[:len(v)]
	gs = gs[:len(v)]
	acc = acc[:len(v)]
	var m float32
	for i := range v {
		old := w[i]
		g := gs[i]*gscale + wd*old
		vv := mom*v[i] + g
		v[i] = vv
		nw := old - lr*vv
		w[i] = nw
		sum := acc[i] + (nw - old)
		acc[i] = sum
		a := math.Float32frombits(math.Float32bits(sum) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}
