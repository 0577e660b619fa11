package nn

import (
	"fmt"

	"threelc/internal/tensor"
)

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask  []bool
	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero, remembering the mask for backward.
//
//3lc:noalloc
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d := x.Data()
	y := r.y.Resize(x.Shape()...)
	yd := y.Data()
	r.mask = grow(r.mask, len(d))
	for i, v := range d {
		if v > 0 {
			yd[i] = v
			r.mask[i] = true
		} else {
			yd[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

// Backward zeroes gradients where the input was non-positive.
//
//3lc:noalloc
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dd := dout.Data()
	dx := r.dx.Resize(dout.Shape()...)
	dxd := dx.Data()
	for i, m := range r.mask {
		if m {
			dxd[i] = dd[i]
		} else {
			dxd[i] = 0
		}
	}
	return dx
}

// Params returns nil (ReLU has no parameters).
func (r *ReLU) Params() []*Param { return nil }

// GlobalAvgPool reduces [N, C, H, W] to [N, C] by averaging each plane,
// the standard ResNet classification head.
type GlobalAvgPool struct {
	shape []int
	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewGlobalAvgPool creates the pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial dimensions.
//
//3lc:noalloc
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool wants NCHW, got %v", shape))
	}
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	g.shape = append(g.shape[:0], shape...)
	plane := h * w
	inv := 1 / float32(plane)
	y := g.y.Resize(n, c)
	xd, yd := x.Data(), y.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * plane
			var s float32
			for i := 0; i < plane; i++ {
				s += xd[base+i]
			}
			yd[b*c+ch] = s * inv
		}
	}
	return y
}

// Backward broadcasts the pooled gradient uniformly over each plane.
//
//3lc:noalloc
func (g *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.shape[0], g.shape[1], g.shape[2], g.shape[3]
	plane := h * w
	inv := 1 / float32(plane)
	dx := g.dx.Resize(n, c, h, w)
	dd, dxd := dout.Data(), dx.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gv := dd[b*c+ch] * inv
			base := (b*c + ch) * plane
			for i := 0; i < plane; i++ {
				dxd[base+i] = gv
			}
		}
	}
	return dx
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, D]. Like every layer it returns
// tensors it owns, so it copies rather than aliasing its argument.
type Flatten struct {
	shape []int
	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
//
//3lc:noalloc
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	f.shape = append(f.shape[:0], shape...)
	n := shape[0]
	y := f.y.Resize(n, x.Len()/n)
	y.CopyFrom(x)
	return y
}

// Backward restores the original shape.
//
//3lc:noalloc
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := f.dx.Resize(f.shape...)
	dx.CopyFrom(dout)
	return dx
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }
