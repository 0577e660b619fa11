package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over (N, H, W),
// with learnable per-channel scale (gamma) and offset (beta), and running
// statistics for evaluation mode. Matching §5.1, its parameters are
// flagged NoCompress: the paper excludes batch-norm tensors from traffic
// compression because they are small.
type BatchNorm2D struct {
	Gamma *Param
	Beta  *Param

	c        int
	momentum float64
	eps      float64

	runningMean []float64
	runningVar  []float64

	// caches for backward
	xhat    []float32
	invStd  []float64
	shape   []int
	perChan int

	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewBatchNorm2D creates a batch-norm layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Gamma:       newParam(name+".gamma", c),
		Beta:        newParam(name+".beta", c),
		c:           c,
		momentum:    0.9,
		eps:         1e-5,
		runningMean: make([]float64, c),
		runningVar:  make([]float64, c),
		invStd:      make([]float64, c),
	}
	bn.Gamma.W.Fill(1)
	bn.Gamma.NoCompress = true
	bn.Beta.NoCompress = true
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// Forward normalizes x ([N, C, H, W]).
//
//3lc:noalloc
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != bn.c {
		panic(fmt.Sprintf("nn: BatchNorm2D(%d) got input shape %v", bn.c, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	plane := h * w
	count := n * plane

	y := bn.y.Resize(shape...)
	xd, yd := x.Data(), y.Data()
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()

	bn.shape = append(bn.shape[:0], shape...)
	bn.perChan = count
	bn.xhat = grow(bn.xhat, len(xd))

	for c := 0; c < bn.c; c++ {
		var mean, variance float64
		if train {
			var sum, sq float64
			for b := 0; b < n; b++ {
				base := (b*bn.c + c) * plane
				for i := 0; i < plane; i++ {
					v := float64(xd[base+i])
					sum += v
					sq += v * v
				}
			}
			mean = sum / float64(count)
			variance = sq/float64(count) - mean*mean
			if variance < 0 {
				variance = 0
			}
			bn.runningMean[c] = bn.momentum*bn.runningMean[c] + (1-bn.momentum)*mean
			bn.runningVar[c] = bn.momentum*bn.runningVar[c] + (1-bn.momentum)*variance
		} else {
			mean = bn.runningMean[c]
			variance = bn.runningVar[c]
		}
		invStd := 1 / math.Sqrt(variance+bn.eps)
		bn.invStd[c] = invStd
		g, bta := gd[c], bd[c]
		for b := 0; b < n; b++ {
			base := (b*bn.c + c) * plane
			for i := 0; i < plane; i++ {
				xh := float32((float64(xd[base+i]) - mean) * invStd)
				bn.xhat[base+i] = xh
				yd[base+i] = g*xh + bta
			}
		}
	}
	return y
}

// Backward computes dgamma, dbeta, and dx using the standard batch-norm
// gradient (training-mode statistics).
//
//3lc:noalloc
func (bn *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	shape := bn.shape
	n, h, w := shape[0], shape[2], shape[3]
	plane := h * w
	count := float64(bn.perChan)

	dx := bn.dx.Resize(shape...)
	dd, dxd := dout.Data(), dx.Data()
	gd := bn.Gamma.W.Data()
	ggd, gbd := bn.Gamma.G.Data(), bn.Beta.G.Data()

	for c := 0; c < bn.c; c++ {
		var sumDy, sumDyXhat float64
		for b := 0; b < n; b++ {
			base := (b*bn.c + c) * plane
			for i := 0; i < plane; i++ {
				dy := float64(dd[base+i])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xhat[base+i])
			}
		}
		ggd[c] += float32(sumDyXhat)
		gbd[c] += float32(sumDy)
		scale := float64(gd[c]) * bn.invStd[c]
		for b := 0; b < n; b++ {
			base := (b*bn.c + c) * plane
			for i := 0; i < plane; i++ {
				dy := float64(dd[base+i])
				xh := float64(bn.xhat[base+i])
				dxd[base+i] = float32(scale * (dy - sumDy/count - xh*sumDyXhat/count))
			}
		}
	}
	return dx
}

// Params returns gamma and beta (both NoCompress).
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// RunningStats exposes the running mean and variance slices (aliased, not
// copied) for checkpointing and cross-model synchronization.
func (bn *BatchNorm2D) RunningStats() (mean, variance []float64) {
	return bn.runningMean, bn.runningVar
}
