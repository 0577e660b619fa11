package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors with square kernels,
// configurable stride, and zero padding. It uses direct convolution loops,
// which are plenty fast at the micro-model scales this repository trains.
type Conv2D struct {
	Weight *Param // [outC, inC, k, k]
	Bias   *Param // [outC]

	inC, outC, k, stride, pad int

	x      *tensor.Tensor // cached input
	y, dx  tensor.Tensor  // workspaces returned by Forward and Backward
	gw, gb []float32      // Backward's batch sums of the kernel and bias gradients
}

// NewConv2D creates a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		Weight: newParam(name+".weight", outC, inC, k, k),
		Bias:   newParam(name+".bias", outC),
		inC:    inC, outC: outC, k: k, stride: stride, pad: pad,
	}
	fanIn := inC * k * k
	std := math.Sqrt(2 / float64(fanIn))
	tensor.FillNormal(c.Weight.W, std, rng)
	return c
}

func (c *Conv2D) outDim(in int) int {
	return (in+2*c.pad-c.k)/c.stride + 1
}

// Forward computes the convolution for x of shape [N, inC, H, W].
//
//3lc:noalloc
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.inC {
		panic(fmt.Sprintf("nn: Conv2D(%d->%d) got input shape %v", c.inC, c.outC, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh, ow := c.outDim(h), c.outDim(w)
	c.x = x
	y := c.y.Resize(n, c.outC, oh, ow)
	xd, wd, bd, yd := x.Data(), c.Weight.W.Data(), c.Bias.W.Data(), y.Data()

	for b := 0; b < n; b++ {
		for oc := 0; oc < c.outC; oc++ {
			bias := bd[oc]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					iy0 := oy*c.stride - c.pad
					ix0 := ox*c.stride - c.pad
					for ic := 0; ic < c.inC; ic++ {
						xBase := ((b * c.inC) + ic) * h * w
						wBase := ((oc * c.inC) + ic) * c.k * c.k
						for ky := 0; ky < c.k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*w
							wRow := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								s += xd[xRow+ix] * wd[wRow+kx]
							}
						}
					}
					yd[((b*c.outC+oc)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return y
}

// Backward adds dW and db to the parameters' G and returns dx, from dout
// of shape [N, outC, OH, OW]. The kernel and bias gradients are summed
// over (b, oc, oy, ox) from +0 in a workspace, then each element is added
// to G with a single add, so a G that carries a residual
// (Param.CarryGrad) ends at residual + sum.
//
//3lc:noalloc
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	xs := c.x.Shape()
	n, h, w := xs[0], xs[2], xs[3]
	os := dout.Shape()
	oh, ow := os[2], os[3]

	dx := c.dx.Resize(n, c.inC, h, w)
	dx.Zero() // accumulated over the overlapping windows below
	xd, wd := c.x.Data(), c.Weight.W.Data()
	c.gw, c.gb = grow(c.gw, len(wd)), grow(c.gb, c.outC)
	gwd, gbd := c.gw, c.gb
	clear(gwd)
	clear(gbd)
	dd, dxd := dout.Data(), dx.Data()

	for b := 0; b < n; b++ {
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dd[((b*c.outC+oc)*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
					gbd[oc] += g
					iy0 := oy*c.stride - c.pad
					ix0 := ox*c.stride - c.pad
					for ic := 0; ic < c.inC; ic++ {
						xBase := ((b * c.inC) + ic) * h * w
						wBase := ((oc * c.inC) + ic) * c.k * c.k
						for ky := 0; ky < c.k; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*w
							wRow := wBase + ky*c.k
							for kx := 0; kx < c.k; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								gwd[wRow+kx] += g * xd[xRow+ix]
								dxd[xRow+ix] += g * wd[wRow+kx]
							}
						}
					}
				}
			}
		}
	}
	addInto(c.Weight.G.Data(), gwd)
	addInto(c.Bias.G.Data(), gbd)
	return dx
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }
