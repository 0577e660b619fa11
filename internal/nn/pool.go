package nn

import (
	"fmt"

	"threelc/internal/tensor"
)

// MaxPool2D is a 2x2, stride-2 max pooling layer over NCHW tensors — the
// downsampling VGG-style architectures use (ResNet-style nets downsample
// with strided convolutions instead).
type MaxPool2D struct {
	argmax []int
	shape  []int

	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewMaxPool2D creates the pooling layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// Forward pools each non-overlapping 2x2 window to its maximum.
//
//3lc:noalloc
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D wants NCHW, got %v", shape))
	}
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D wants even spatial dims, got %dx%d", h, w))
	}
	oh, ow := h/2, w/2
	p.shape = append(p.shape[:0], shape...)
	y := p.y.Resize(n, c, oh, ow)
	p.argmax = grow(p.argmax, y.Len())
	xd, yd := x.Data(), y.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			inBase := (b*c + ch) * h * w
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i00 := inBase + (2*oy)*w + 2*ox
					best, bi := xd[i00], i00
					if v := xd[i00+1]; v > best {
						best, bi = v, i00+1
					}
					if v := xd[i00+w]; v > best {
						best, bi = v, i00+w
					}
					if v := xd[i00+w+1]; v > best {
						best, bi = v, i00+w+1
					}
					oi := outBase + oy*ow + ox
					yd[oi] = best
					p.argmax[oi] = bi
				}
			}
		}
	}
	return y
}

// Backward routes each pooled gradient to the argmax input position.
//
//3lc:noalloc
func (p *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := p.dx.Resize(p.shape...)
	dx.Zero() // only the argmax positions receive a gradient
	dd, dxd := dout.Data(), dx.Data()
	for oi, g := range dd {
		dxd[p.argmax[oi]] += g
	}
	return dx
}

// Params returns nil (pooling has no parameters).
func (p *MaxPool2D) Params() []*Param { return nil }
