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
	for r := 0; r < n; r++ {
		xrow := xd[r*l.in : (r+1)*l.in]
		yrow := yd[r*l.out : (r+1)*l.out]
		for o := 0; o < l.out; o++ {
			wrow := wd[o*l.in : (o+1)*l.in]
			var s float32
			for i, xv := range xrow {
				s += xv * wrow[i]
			}
			yrow[o] = s + bd[o]
		}
	}
	return y
}

// Backward computes parameter gradients and returns dx.
//
//3lc:noalloc
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := l.x.Shape()[0]
	dx := l.dx.Resize(n, l.in)
	dx.Zero() // accumulated over the outputs below
	xd, wd := l.x.Data(), l.Weight.W.Data()
	gd, bd := l.Weight.G.Data(), l.Bias.G.Data()
	dd, dxd := dout.Data(), dx.Data()
	for r := 0; r < n; r++ {
		xrow := xd[r*l.in : (r+1)*l.in]
		drow := dd[r*l.out : (r+1)*l.out]
		dxrow := dxd[r*l.in : (r+1)*l.in]
		for o := 0; o < l.out; o++ {
			g := drow[o]
			if g == 0 {
				continue
			}
			bd[o] += g
			grow := gd[o*l.in : (o+1)*l.in]
			wrow := wd[o*l.in : (o+1)*l.in]
			for i, xv := range xrow {
				grow[i] += g * xv
				dxrow[i] += g * wrow[i]
			}
		}
	}
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
