package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Sink is where SGDStep puts one tensor's model delta, w_new − w_old.
// Exactly one field is set: Acc, an error-accumulation buffer the delta is
// folded into (a pull's compress pass 1, absorbed); Raw, a raw float32
// wire's body, 4 bytes an element, written with the delta's little-endian
// bits — AppendRaw of the delta, byte for byte, so no delta tensor exists
// (it may start at any byte: a body starts one scheme byte into its wire);
// or Delta, where it is stored. Raw and Delta are only written.
type Sink struct {
	Acc   []float32
	Raw   []byte
	Delta []float32
}

// covers reports whether exactly one of to's fields is set and it holds n
// elements — or, for an empty tensor, none is set.
func (to Sink) covers(n int) bool {
	switch {
	case to.Acc != nil:
		return len(to.Acc) == n && to.Raw == nil && to.Delta == nil
	case to.Raw != nil:
		return len(to.Raw) == 4*n && to.Delta == nil
	}
	return len(to.Delta) == n
}

// SGDStep is the parameter server's fused optimizer sweep over one tensor:
// average (the scale fused into the gradient read), momentum and
// weight-decay update, weight write and model delta, in a single pass over
// the four streams. Per element:
//
//	g    = gs[i]·gscale + wd·w[i]
//	v[i] = mom·v[i] + g
//	w[i] = w[i] − lr·v[i]
//	w_new − w_old goes to the sink
//
// gs is a gradient sum whose blocks x stamps: the tier core reads the
// shared zero block in place of every dead block's gradient, which is what
// that block reads as, and the pass hook reports the elements of gs read.
// Into an Acc sink the sweep returns max|acc| of the updated buffer —
// compress pass 1 of the pull, absorbed — and records each block's max in
// x as AccumulateMaxAbs does, so the core runs block by block (over all of
// gs at once under a nil x, which records nothing). Into Raw or Delta it
// records nothing, returns 0, and runs the core over a run of live blocks
// at a time. Every operation is a separately rounded float32 multiply, add
// or subtract (no tier fuses a multiply-add), so w, v and the sink are
// bit-identical across tiers up to NaN payloads and the returned maximum
// and the record exactly (NaN never wins them). w, v, gs and the sink
// must hold the same number of elements.
//
//3lc:noalloc
func (x *Blocks) SGDStep(w, v, gs []float32, to Sink, gscale, wd, mom, lr float32) float32 {
	n := len(v)
	if len(w) != n || len(gs) != n || !to.covers(n) {
		panic(fmt.Sprintf("kernel: SGDStep length mismatch w=%d v=%d gs=%d sink acc=%d raw=%d bytes delta=%d",
			len(w), n, len(gs), len(to.Acc), len(to.Raw), len(to.Delta)))
	}
	var idx []float32
	if to.Acc != nil {
		idx = x.record(n)
	}
	if x != nil {
		x.sized(n)
	}
	var m float32
	read := 0
	for b := 0; b < n; {
		e, g, live := x.grad(gs, b, idx == nil)
		switch {
		case to.Acc != nil:
			bm := sgdStepCore(w[b:e], v[b:e], g, to.Acc[b:e], gscale, wd, mom, lr)
			if idx != nil {
				idx[b/BlockElems] = bm
			}
			if bm > m {
				m = bm
			}
		case to.Raw != nil:
			sgdRawCore(w[b:e], v[b:e], g, to.Raw[4*b:4*e], gscale, wd, mom, lr)
		default:
			sgdDeltaCore(w[b:e], v[b:e], g, to.Delta[b:e], gscale, wd, mom, lr)
		}
		if live {
			read += e - b
		}
		b = e
	}
	notePass("fused-sgd-step", read)
	return m
}

// sgdStepRange is the scalar core of SGDStep into an Acc sink.
func sgdStepRange(w, v, gs, acc []float32, gscale, wd, mom, lr float32) float32 {
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

// sgdDeltaRange is the scalar core of SGDStep into a Delta sink:
// sgdStepRange with the delta stored.
func sgdDeltaRange(w, v, gs, delta []float32, gscale, wd, mom, lr float32) {
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

// sgdRawRange is the scalar core of SGDStep into a Raw sink:
// sgdDeltaRange with the delta's bits stored little-endian.
func sgdRawRange(w, v, gs []float32, raw []byte, gscale, wd, mom, lr float32) {
	w = w[:len(v)]
	gs = gs[:len(v)]
	raw = raw[:4*len(v)]
	for i := range v {
		old := w[i]
		g := gs[i]*gscale + wd*old
		vv := mom*v[i] + g
		v[i] = vv
		nw := old - lr*vv
		w[i] = nw
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(nw-old))
	}
}
