package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// Linear is a fully-connected layer: y = x W^T + b with x of shape
// [N, in], W of shape [out, in], b of shape [out].
type Linear struct {
	Weight *Param
	Bias   *Param

	in, out int
	x       *tensor.Tensor // cached input for backward
	y, dx   tensor.Tensor  // workspaces returned by Forward and Backward
	rows    []int          // Backward's samples of one output whose dout is not zero
}

// NewLinear creates a fully-connected layer with He-normal initialized
// weights and zero bias.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
		in:     in,
		out:    out,
	}
	std := math.Sqrt(2 / float64(in))
	tensor.FillNormal(l.Weight.W, std, rng)
	return l
}

// Forward computes y[n,o] = sum_i x[n,i] * W[o,i] + b[o].
//
// Each y[n,o] is one chain: a sum formed from +0 by adding x[n,i]*W[o,i]
// in ascending i, then b[o] added once the chain ends — so its bits do not
// depend on the batch size or on which samples share a pass. The walk is
// output-major: for output o it reads W's row once for the whole batch,
// four samples at a time, whose four chains run side by side (one load of
// W[o,i] feeds four independent adds); the last n mod 4 samples run one
// chain each.
//
//3lc:noalloc
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 2 || shape[1] != l.in {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input shape %v", l.in, l.out, shape))
	}
	n := shape[0]
	l.x = x
	y := l.y.Resize(n, l.out)
	xd, wd, bd, yd := x.Data(), l.Weight.W.Data(), l.Bias.W.Data(), y.Data()
	for o := 0; o < l.out; o++ {
		wrow, b := wd[o*l.in:(o+1)*l.in], bd[o]
		r := 0
		for ; r+4 <= n; r += 4 {
			x0, x1 := xd[r*l.in:][:len(wrow)], xd[(r+1)*l.in:][:len(wrow)]
			x2, x3 := xd[(r+2)*l.in:][:len(wrow)], xd[(r+3)*l.in:][:len(wrow)]
			var s0, s1, s2, s3 float32
			for i, wv := range wrow {
				s0 += x0[i] * wv
				s1 += x1[i] * wv
				s2 += x2[i] * wv
				s3 += x3[i] * wv
			}
			yd[r*l.out+o] = s0 + b
			yd[(r+1)*l.out+o] = s1 + b
			yd[(r+2)*l.out+o] = s2 + b
			yd[(r+3)*l.out+o] = s3 + b
		}
		for ; r < n; r++ {
			var s float32
			for i, xv := range xd[r*l.in:][:len(wrow)] {
				s += xv * wrow[i]
			}
			yd[r*l.out+o] = s + b
		}
	}
	return y
}

// Backward adds the batch's parameter gradients to G and returns dx.
//
// Each parameter element's batch gradient is added to G with a single add:
// a sum over the samples, formed from +0 in sample order, skipping samples
// whose dout is 0. A G that carries a residual R (Param.CarryGrad) thus
// ends at R + sum, bit for bit what adding a zeroed G's gradient to R
// gives. The walk is output-major: for output o it gathers the samples
// whose dout is not zero and folds them four at a time — in registers when
// there are exactly four, the end-to-end benchmark's batch, else through a
// tile of partial sums — and dx, summed over the outputs in ascending
// order, is folded in the same loop.
//
// When the weight's G is asked for its block maxima (Param.RecordMax),
// each row of G is folded into them once it is final — after its four
// samples' register pass or its last tile, and for an output whose every
// sample's dout is 0 too, whose row keeps the residual — so compress
// pass 1 reads the row while it is in cache instead of sweeping G again.
//
//3lc:noalloc
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := l.x.Shape()[0]
	dx := l.dx.Resize(n, l.in)
	dx.Zero() // accumulated over the outputs below
	xd, wd := l.x.Data(), l.Weight.W.Data()
	gd, bd := l.Weight.G.Data(), l.Bias.G.Data()
	dd, dxd := dout.Data(), dx.Data()
	l.rows = grow(l.rows, n)
	var tile [256]float32
	rec, gmax := l.Weight.rec, float32(0)
	l.Weight.fresh = false // until every row is recorded
	for o := 0; o < l.out; o++ {
		rows := l.rows[:0]
		var bsum float32
		for r := 0; r < n; r++ {
			if g := dd[r*l.out+o]; g != 0 {
				rows = append(rows, r)
				bsum += g
			}
		}
		bd[o] += bsum
		gw, w := gd[o*l.in:(o+1)*l.in], wd[o*l.in:(o+1)*l.in]
		if len(rows) == 4 {
			l.fold4(nil, gw, w, dd, o, rows, 0)
		} else {
			for lo := 0; lo < l.in; lo += len(tile) {
				part := tile[:min(len(tile), l.in-lo)]
				clear(part)
				k := 0
				for ; k+4 <= len(rows); k += 4 {
					l.fold4(part, nil, w, dd, o, rows[k:k+4], lo)
				}
				for _, r := range rows[k:] {
					g := dd[r*l.out+o]
					x, d := xd[r*l.in+lo:][:len(part)], dxd[r*l.in+lo:][:len(part)]
					for j, wv := range w[lo:][:len(part)] {
						part[j] += g * x[j]
						d[j] += g * wv
					}
				}
				addInto(gw[lo:], part)
			}
		}
		if rec != nil { // gw is final
			gmax = rec.MaxAbsSpan(gd, o*l.in, (o+1)*l.in, gmax)
		}
	}
	if rec != nil {
		l.Weight.recMax, l.Weight.fresh = gmax, true
	}
	return dx
}

// fold4 folds samples rows[0..3] of output o into elements lo.. of its
// weight gradient and of their dx rows, over len(part) elements, or all of
// gw's when part is nil: with part, each sum continues from part[j] and is
// stored back there; without, it starts from +0 and is added to gw[j].
func (l *Linear) fold4(part, gw, w, dd []float32, o int, rows []int, lo int) {
	xd, dxd := l.x.Data(), l.dx.Data()
	m := len(part)
	if part == nil {
		m = len(gw)
	}
	g0, g1, g2, g3 := dd[rows[0]*l.out+o], dd[rows[1]*l.out+o], dd[rows[2]*l.out+o], dd[rows[3]*l.out+o]
	x0, x1 := xd[rows[0]*l.in+lo:][:m], xd[rows[1]*l.in+lo:][:m]
	x2, x3 := xd[rows[2]*l.in+lo:][:m], xd[rows[3]*l.in+lo:][:m]
	d0, d1 := dxd[rows[0]*l.in+lo:][:m], dxd[rows[1]*l.in+lo:][:m]
	d2, d3 := dxd[rows[2]*l.in+lo:][:m], dxd[rows[3]*l.in+lo:][:m]
	w = w[lo:][:m]
	if part == nil {
		gw = gw[:m]
		for j, wv := range w {
			var s float32
			s += g0 * x0[j]
			s += g1 * x1[j]
			s += g2 * x2[j]
			s += g3 * x3[j]
			gw[j] += s
			d0[j] += g0 * wv
			d1[j] += g1 * wv
			d2[j] += g2 * wv
			d3[j] += g3 * wv
		}
		return
	}
	for j, wv := range w {
		s := part[j]
		s += g0 * x0[j]
		s += g1 * x1[j]
		s += g2 * x2[j]
		s += g3 * x3[j]
		part[j] = s
		d0[j] += g0 * wv
		d1[j] += g1 * wv
		d2[j] += g2 * wv
		d3[j] += g3 * wv
	}
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
