package nn

import (
	"threelc/internal/tensor"
)

// ResidualBlock is a two-convolution residual unit with identity mapping:
//
//	y = ReLU(BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x))
//
// When the block changes the channel count or stride, the shortcut is a
// 1x1 strided convolution + batch norm (ResNet "option B"); otherwise it
// is the identity. This is the architectural signature of ResNet-110 the
// paper trains (§5.2: "identity mappings are commonly found in
// high-accuracy neural network architectures").
type ResidualBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm2D
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm2D

	projConv *Conv2D      // nil for identity shortcut
	projBN   *BatchNorm2D // nil for identity shortcut

	reluOut *ReLU

	x *tensor.Tensor // cached block input for the shortcut backward
}

// NewResidualBlock builds a block mapping inC channels to outC with the
// given stride on the first convolution.
func NewResidualBlock(name string, inC, outC, stride int, rng *tensor.RNG) *ResidualBlock {
	b := &ResidualBlock{
		conv1:   NewConv2D(name+".conv1", inC, outC, 3, stride, 1, rng),
		bn1:     NewBatchNorm2D(name+".bn1", outC),
		relu1:   NewReLU(),
		conv2:   NewConv2D(name+".conv2", outC, outC, 3, 1, 1, rng),
		bn2:     NewBatchNorm2D(name+".bn2", outC),
		reluOut: NewReLU(),
	}
	if inC != outC || stride != 1 {
		b.projConv = NewConv2D(name+".proj", inC, outC, 1, stride, 0, rng)
		b.projBN = NewBatchNorm2D(name+".projbn", outC)
	}
	return b
}

// Forward runs the residual unit. The sum is taken in bn2's output, which
// its Backward does not read; the result is reluOut's.
//
//3lc:noalloc
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.x = x
	h := b.conv1.Forward(x, train)
	h = b.bn1.Forward(h, train)
	h = b.relu1.Forward(h, train)
	h = b.conv2.Forward(h, train)
	h = b.bn2.Forward(h, train)

	var sc *tensor.Tensor
	if b.projConv != nil {
		sc = b.projConv.Forward(x, train)
		sc = b.projBN.Forward(sc, train)
	} else {
		sc = x
	}
	h.Add(sc)
	return b.reluOut.Forward(h, train)
}

// Backward propagates through both the residual and shortcut paths. The
// sum is taken in conv1's input gradient, which is returned.
//
//3lc:noalloc
func (b *ResidualBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d := b.reluOut.Backward(dout)

	// Residual path.
	dr := b.bn2.Backward(d)
	dr = b.conv2.Backward(dr)
	dr = b.relu1.Backward(dr)
	dr = b.bn1.Backward(dr)
	dr = b.conv1.Backward(dr)

	// Shortcut path: the addition passes d through unchanged.
	var ds *tensor.Tensor
	if b.projConv != nil {
		ds = b.projBN.Backward(d)
		ds = b.projConv.Backward(ds)
	} else {
		ds = d
	}
	dr.Add(ds)
	return dr
}

// Params returns all trainable tensors of the block.
func (b *ResidualBlock) Params() []*Param {
	ps := append(b.conv1.Params(), b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.projConv != nil {
		ps = append(ps, b.projConv.Params()...)
		ps = append(ps, b.projBN.Params()...)
	}
	return ps
}
