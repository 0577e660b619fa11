package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// BatchNorm1D normalizes each feature of an [N, D] tensor over the batch,
// with learnable per-feature scale and offset. Like BatchNorm2D, its
// parameters are NoCompress (§5.1 exempts batch-norm tensors).
type BatchNorm1D struct {
	Gamma *Param
	Beta  *Param

	d        int
	momentum float64
	eps      float64

	runningMean []float64
	runningVar  []float64

	xhat   []float32
	invStd []float64
	n      int

	y, dx tensor.Tensor // workspaces returned by Forward and Backward
}

// NewBatchNorm1D creates a batch-norm layer over d features.
func NewBatchNorm1D(name string, d int) *BatchNorm1D {
	bn := &BatchNorm1D{
		Gamma:       newParam(name+".gamma", d),
		Beta:        newParam(name+".beta", d),
		d:           d,
		momentum:    0.9,
		eps:         1e-5,
		runningMean: make([]float64, d),
		runningVar:  make([]float64, d),
		invStd:      make([]float64, d),
	}
	bn.Gamma.W.Fill(1)
	bn.Gamma.NoCompress = true
	bn.Beta.NoCompress = true
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// Forward normalizes x ([N, D]).
//
//3lc:noalloc
func (bn *BatchNorm1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 2 || shape[1] != bn.d {
		panic(fmt.Sprintf("nn: BatchNorm1D(%d) got input shape %v", bn.d, shape))
	}
	n := shape[0]
	bn.n = n
	y := bn.y.Resize(n, bn.d)
	xd, yd := x.Data(), y.Data()
	gd, bd := bn.Gamma.W.Data(), bn.Beta.W.Data()

	bn.xhat = grow(bn.xhat, len(xd))

	for j := 0; j < bn.d; j++ {
		var mean, variance float64
		if train {
			var sum, sq float64
			for i := 0; i < n; i++ {
				v := float64(xd[i*bn.d+j])
				sum += v
				sq += v * v
			}
			mean = sum / float64(n)
			variance = sq/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			bn.runningMean[j] = bn.momentum*bn.runningMean[j] + (1-bn.momentum)*mean
			bn.runningVar[j] = bn.momentum*bn.runningVar[j] + (1-bn.momentum)*variance
		} else {
			mean = bn.runningMean[j]
			variance = bn.runningVar[j]
		}
		invStd := 1 / math.Sqrt(variance+bn.eps)
		bn.invStd[j] = invStd
		g, beta := gd[j], bd[j]
		for i := 0; i < n; i++ {
			xh := float32((float64(xd[i*bn.d+j]) - mean) * invStd)
			bn.xhat[i*bn.d+j] = xh
			yd[i*bn.d+j] = g*xh + beta
		}
	}
	return y
}

// Backward computes dgamma, dbeta, and dx.
//
//3lc:noalloc
func (bn *BatchNorm1D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n := bn.n
	dx := bn.dx.Resize(n, bn.d)
	dd, dxd := dout.Data(), dx.Data()
	gd := bn.Gamma.W.Data()
	ggd, gbd := bn.Gamma.G.Data(), bn.Beta.G.Data()
	count := float64(n)

	for j := 0; j < bn.d; j++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			dy := float64(dd[i*bn.d+j])
			sumDy += dy
			sumDyXhat += dy * float64(bn.xhat[i*bn.d+j])
		}
		ggd[j] += float32(sumDyXhat)
		gbd[j] += float32(sumDy)
		scale := float64(gd[j]) * bn.invStd[j]
		for i := 0; i < n; i++ {
			dy := float64(dd[i*bn.d+j])
			xh := float64(bn.xhat[i*bn.d+j])
			dxd[i*bn.d+j] = float32(scale * (dy - sumDy/count - xh*sumDyXhat/count))
		}
	}
	return dx
}

// Params returns gamma and beta (both NoCompress).
func (bn *BatchNorm1D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// RunningStats exposes the running mean and variance slices (aliased, not
// copied) for checkpointing and cross-model synchronization.
func (bn *BatchNorm1D) RunningStats() (mean, variance []float64) {
	return bn.runningMean, bn.runningVar
}
