package nn

import (
	"fmt"
	"math"

	"threelc/internal/tensor"
)

// SoftmaxCrossEntropy is the standard classification loss head. Forward
// computes mean cross-entropy over the batch; Backward returns
// d(loss)/d(logits) = (softmax - onehot)/N.
type SoftmaxCrossEntropy struct {
	probs  tensor.Tensor // workspace: Forward's softmax, read by Backward
	labels []int
	d      tensor.Tensor // workspace: Backward's output
}

// NewSoftmaxCrossEntropy creates the loss head.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward computes the mean cross-entropy of logits ([N, C]) against
// integer labels.
//
//3lc:noalloc
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	shape := logits.Shape()
	if len(shape) != 2 {
		panic(fmt.Sprintf("nn: loss wants [N, C] logits, got %v", shape))
	}
	n, c := shape[0], shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	l.labels = labels
	ld, pd := logits.Data(), l.probs.Resize(n, c).Data()

	var total float64
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			pd[i*c+j] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for j := 0; j < c; j++ {
			pd[i*c+j] = float32(float64(pd[i*c+j]) * inv)
		}
		p := float64(pd[i*c+labels[i]])
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(p)
	}
	return total / float64(n)
}

// Backward returns the gradient of the mean loss w.r.t. the logits.
//
//3lc:noalloc
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	shape := l.probs.Shape()
	n, c := shape[0], shape[1]
	d := l.d.Resize(n, c)
	pd, dd := l.probs.Data(), d.Data()
	inv := 1 / float32(n)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			g := pd[i*c+j]
			if j == l.labels[i] {
				g -= 1
			}
			dd[i*c+j] = g * inv
		}
	}
	return d
}
