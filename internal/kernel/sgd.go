package kernel

import (
	"fmt"
	"math"
)

// FusedSGDStep is the parameter server's fused optimizer sweep over one
// tensor: average (the scale fused into the gradient read), momentum and
// weight-decay update, weight write and model delta, in a single pass over
// the four streams. Per element:
//
//	g   = gs[i]·gscale + wd·w[i]
//	v[i] = mom·v[i] + g
//	w[i] = w[i] − lr·v[i]
//	acc[i] += w_new − w_old
//
// The sweep has two forms that differ only in that last line. This one
// folds the delta into the pull compressor's error-accumulation buffer and
// returns max|acc| of the updated buffer — compress pass 1 of the pull,
// absorbed, recording x as AccumulateMaxAbs does (a nil x records
// nothing). FusedSGDStepDelta stores it instead. Every operation is a
// separately rounded float32 multiply, add or subtract (no tier fuses a
// multiply-add), so w, v and acc are bit-identical across tiers up to NaN
// payloads and the returned maximum and index exactly (NaN never wins
// them). All four slices must have equal length. Every block of gs is
// live.
//
//3lc:noalloc
func (x *BlockMax) FusedSGDStep(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	var all *LiveBlocks
	return all.FusedSGDStep(x, w, v, gs, acc, gscale, wd, mom, lr)
}

// FusedSGDStep is x.FusedSGDStep over a gradient sum gs that l records:
// the tier core runs block by block — or over a run of live blocks at a
// time where x records nothing — and reads the shared zero block in place
// of every dead block's gradient, which is what that block reads as. The
// pass hook reports the elements of gs read.
//
//3lc:noalloc
func (l *LiveBlocks) FusedSGDStep(x *BlockMax, w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
	if len(w) != len(v) || len(gs) != len(v) || len(acc) != len(v) {
		panic(fmt.Sprintf("kernel: FusedSGDStep length mismatch w=%d v=%d gs=%d acc=%d", len(w), len(v), len(gs), len(acc)))
	}
	idx := x.record(len(v))
	if l != nil {
		l.sized(len(v))
	}
	var m float32
	read := 0
	for b := 0; b < len(v); {
		e, g, live := l.grad(gs, b, idx == nil)
		bm := sgdStepCore(w[b:e], v[b:e], g, acc[b:e], gscale, wd, mom, lr)
		if idx != nil {
			idx[b/BlockElems] = bm
		}
		if live {
			read += e - b
		}
		if bm > m {
			m = bm
		}
		b = e
	}
	notePass("fused-sgd-step", read)
	return m
}

// FusedSGDStepDelta is the delta-writing form of FusedSGDStep, for pull
// contexts with no accumulation buffer to fold into (raw floats and the
// non-accumulating codecs): the same sweep with delta[i] = w_new − w_old as
// its last step. delta is only written; w and v come out bit-identical to
// the accumulate form's. All four slices must have equal length. Every
// block of gs is live.
//
//3lc:noalloc
func FusedSGDStepDelta(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
	var all *LiveBlocks
	all.FusedSGDStepDelta(w, v, gs, delta, gscale, wd, mom, lr)
}

// FusedSGDStepDelta is FusedSGDStepDelta over a gradient sum gs that l
// records, reading dead blocks as LiveBlocks.FusedSGDStep does.
//
//3lc:noalloc
func (l *LiveBlocks) FusedSGDStepDelta(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
	if len(w) != len(v) || len(gs) != len(v) || len(delta) != len(v) {
		panic(fmt.Sprintf("kernel: FusedSGDStepDelta length mismatch w=%d v=%d gs=%d delta=%d", len(w), len(v), len(gs), len(delta)))
	}
	if l != nil {
		l.sized(len(v))
	}
	read := 0
	for b := 0; b < len(v); {
		e, g, live := l.grad(gs, b, true)
		sgdDeltaCore(w[b:e], v[b:e], g, delta[b:e], gscale, wd, mom, lr)
		if live {
			read += e - b
		}
		b = e
	}
	notePass("fused-sgd-step", read)
}

// fusedSGDStepRange is the scalar reference core of FusedSGDStep.
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

// fusedSGDStepDeltaRange is the scalar reference core of FusedSGDStepDelta:
// fusedSGDStepRange with the delta stored.
func fusedSGDStepDeltaRange(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
	w = w[:len(v)]
	gs = gs[:len(v)]
	delta = delta[:len(v)]
	for i := range v {
		old := w[i]
		g := gs[i]*gscale + wd*old
		vv := mom*v[i] + g
		v[i] = vv
		nw := old - lr*vv
		w[i] = nw
		delta[i] = nw - old
	}
}
