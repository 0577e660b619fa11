// Package nn is a compact neural-network substrate with explicit
// forward/backward passes, built so the parameter-server runtime can train
// real models and produce real gradient tensors for the compression
// pipeline to chew on.
//
// The paper trains ResNet-110 on CIFAR-10 on GPUs; no Go deep-learning
// framework (or GPU) exists in this environment, so this package provides
// the closest CPU-trainable equivalent: linear and convolutional layers,
// batch normalization, ReLU, residual blocks with identity mappings, and
// softmax cross-entropy — enough to build "MicroResNet" models that share
// ResNet's architectural signature (identity skips, batch norm, small
// parameter-to-computation ratio).
//
// Design notes:
//   - Activations flow as flat tensors with explicit [N, ...] shapes.
//   - Each layer owns its parameters as named Params; the parameter server
//     compresses per-Param tensors, exactly matching the paper's
//     one-compression-context-per-layer-tensor model (§3).
//   - Batch-norm parameters are flagged NoCompress, reproducing §5.1's
//     exemption of small layers from compression.
//   - Every layer keeps the tensors it returns in its own workspace, grown
//     only when a batch needs more elements than it holds and re-viewed at
//     smaller batches, so a warm TrainStep allocates nothing. A returned
//     tensor belongs to the layer and is overwritten by its next call: a
//     caller that keeps one past that copies it.
package nn

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// Param is a named trainable tensor with its gradient.
type Param struct {
	// Name uniquely identifies the tensor within a model (e.g.
	// "block2.conv1.weight"); the parameter server keys compression
	// contexts by it.
	Name string
	// W holds the parameter values.
	W *tensor.Tensor
	// G receives the gradient of the loss w.r.t. W for the current batch:
	// every layer's Backward adds each element's batch gradient to it with
	// a single add, and Model.ZeroGrad zeroes it first — unless it carries
	// state between steps (CarryGrad), when it ends the backward pass at
	// its old value plus the gradient. On a model served by a ps.Job, G
	// holds the step's gradient sum under the stamps of the job's
	// kernel.Blocks record instead, and a block the record calls dead
	// holds stale values.
	G *tensor.Tensor
	// NoCompress marks small tensors (batch norm scales/offsets) that the
	// training pipeline transmits uncompressed, per §5.1.
	NoCompress bool

	carry  bool           // G carries state between steps: ZeroGrad leaves it alone
	gFrame []float32      // G's allocation: gHeadroom floats, then G's data
	rec    *kernel.Blocks // where a recording Backward leaves G's block maxima (RecordMax), nil when none is asked for
	recMax float32        // max|G| as that Backward reduced it
	fresh  bool           // rec and recMax describe G as it stands: the last write to G was a recording Backward
}

// gHeadroom is how many floats newParam allocates in front of each G: one
// cache line, which keeps G's data as aligned as its allocation and leaves
// room to put a header in front of G's bytes (Param.GFrame).
const gHeadroom = 16

func newParam(name string, shape ...int) *Param {
	w := tensor.New(shape...)
	frame := make([]float32, gHeadroom+w.Len())
	return &Param{Name: name, W: w, G: tensor.FromSlice(frame[gHeadroom:], shape...), gFrame: frame}
}

// GFrame returns G's memory with the spare floats newParam allocates in
// front of it (gHeadroom, a cache line), so a caller can frame G's bytes
// in place — a ps.Worker's float32 push wire is the last byte of that
// headroom followed by G — or nil when G is not that memory: a Param built
// as a literal, or one whose G was replaced.
func (p *Param) GFrame() []float32 {
	g := p.G.Data()
	if len(g) == 0 || len(p.gFrame) != gHeadroom+len(g) || &p.gFrame[gHeadroom] != &g[0] {
		return nil
	}
	return p.gFrame
}

// CarryGrad marks p's G as carrying state between steps: Model.ZeroGrad
// leaves it alone, so backward adds the gradient to what it holds. It is
// how a ps.Worker makes G the error buffer of its 3LC push context — at a
// step boundary G holds the residual e, after backward e + g, the
// quantizer's input — and nothing else calls it.
func (p *Param) CarryGrad() { p.carry = true }

// RecordMax asks p's layer to take compress pass 1 of G as its Backward
// writes G: each row, once final and while it is in cache, has its max|G|
// folded into x's block maxima (kernel.Blocks.MaxAbsSpan), and TakeMax
// hands back max|G|. Linear records its weight; every other Param records
// nothing, and its TakeMax reports false. A ps.Worker asks it of each G
// that is its 3LC push context's error buffer.
func (p *Param) RecordMax(x *kernel.Blocks) { p.rec, p.fresh = x, false }

// TakeMax returns max|G| and true when the last write to G was a Backward
// that recorded all of G into x (RecordMax): x then holds the block maxima
// x.MaxAbs(G) would record, and the max is what it would return, bit for
// bit. It consumes the record: until the next recording Backward it
// reports false, and the caller reduces G itself.
func (p *Param) TakeMax(x *kernel.Blocks) (float32, bool) {
	if !p.fresh || p.rec != x {
		return 0, false
	}
	p.fresh = false
	return p.recMax, true
}

// ForgetMax marks G's recorded maxima stale. Whatever writes G outside a
// layer's Backward, between a recording Backward and TakeMax, calls it —
// Model.ZeroGrad does, and so does a ps.Worker's RestoreState — so that
// TakeMax never returns the maxima of a G that has changed since.
func (p *Param) ForgetMax() { p.fresh = false }

// Layer is one differentiable module. Forward computes outputs from
// inputs; Backward consumes d(loss)/d(output) and returns d(loss)/d(input),
// adding each parameter element's batch gradient to its G with a single
// add — a sum formed from +0 first — so a G that carries state between
// steps (Param.CarryGrad) ends at its old value plus exactly the gradient
// a zeroed G would hold. A layer may also take compress pass 1 of a G
// that asks for it (Param.RecordMax) as it writes G, and then must record
// all of G in that Backward; Linear does, every other layer records
// nothing and its Params' consumers reduce G themselves. Layers cache
// whatever they need between Forward and Backward, so a layer instance
// processes one batch at a time.
//
// Both methods return a tensor the layer owns: Forward's output is valid
// until the layer's next Forward, Backward's until its next Backward. A
// caller that keeps one longer copies it.
type Layer interface {
	// Forward runs the layer on x. train toggles training-time behavior
	// (batch-norm statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates dout back through the most recent Forward.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// grow returns s re-sliced to n elements, reallocating only when its
// capacity is short: the growth step of a layer's per-batch scratch.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// addInto adds src into dst element-wise: the single add by which a layer
// that sums a gradient in a workspace hands it to G.
func addInto(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs every layer in order.
//
//3lc:noalloc
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
//
//3lc:noalloc
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params concatenates all layers' parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Model is a network plus its loss head. Its layers are fixed after
// construction: Params caches what they report the first time it is asked.
type Model struct {
	Net  *Sequential
	Loss *SoftmaxCrossEntropy

	params []*Param      // Net.Params(), built once
	rows   tensor.Tensor // Correct's view of its input's rows
}

// Params returns the model's trainable parameters in a stable order. The
// slice is built on the first call and shared by every later one — every
// TrainStep (ZeroGrad) and every driver asks each step, and rebuilding it
// costs an allocation per layer — so callers must not modify it; its
// capacity equals its length, so appending to it copies. The first call
// must not race with another.
func (m *Model) Params() []*Param {
	if m.params == nil {
		ps := m.Net.Params()
		m.params = ps[:len(ps):len(ps)]
	}
	return m.params
}

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// ZeroGrad clears every parameter gradient but those that carry state
// between steps (Param.CarryGrad), and marks every recorded max stale
// (Param.ForgetMax), so a G written by hand after it is reduced afresh.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ForgetMax()
		if !p.carry {
			p.G.Zero()
		}
	}
}

// TrainStep runs forward + backward on one batch and returns the mean loss.
// Gradients are added to the Params' G tensors (zeroed first by ZeroGrad,
// except those that carry state).
// Once every layer's workspace has grown to the batch it allocates nothing.
//
//3lc:noalloc
func (m *Model) TrainStep(x *tensor.Tensor, labels []int) float64 {
	m.ZeroGrad()
	logits := m.Net.Forward(x, true)
	loss := m.Loss.Forward(logits, labels)
	dlogits := m.Loss.Backward()
	m.Net.Backward(dlogits)
	return loss
}

// EvalRows is how many rows Correct forwards at a time: evaluation is
// per example (Linear works row by row, batch norm uses its running
// statistics, convolution and pooling work per example), so a set walked
// in chunks scores bit for bit what one whole-set forward would, while the
// layers' workspaces stay EvalRows deep.
const EvalRows = 32

// Correct returns how many of x's rows the model classifies as labels
// says: the argmax of each row's logits, the first of equal maxima,
// against its label. It forwards x EvalRows rows at a time through a view
// of x, copying nothing, and once the layers' workspaces have grown to
// EvalRows it allocates nothing. len(labels) must equal x's row count.
//
//3lc:noalloc
func (m *Model) Correct(x *tensor.Tensor, labels []int) int {
	n := x.Shape()[0]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), n))
	}
	correct := 0
	for lo := 0; lo < n; lo += EvalRows {
		hi := min(lo+EvalRows, n)
		logits := m.Net.Forward(m.rows.ViewRows(x, lo, hi), false)
		shape := logits.Shape()
		if len(shape) != 2 {
			panic(fmt.Sprintf("nn: Correct wants [N, classes] logits, got %v", shape))
		}
		c, d := shape[1], logits.Data()
		for r := range hi - lo {
			row := d[r*c : (r+1)*c]
			best, bi := row[0], 0
			for j := 1; j < c; j++ {
				if row[j] > best {
					best, bi = row[j], j
				}
			}
			if bi == labels[lo+r] {
				correct++
			}
		}
	}
	return correct
}

// Accuracy is the model's top-1 accuracy on (x, labels): Correct over the
// row count, and 0 for no rows.
func (m *Model) Accuracy(x *tensor.Tensor, labels []int) float64 {
	correct := m.Correct(x, labels)
	if len(labels) == 0 {
		return 0
	}
	return float64(correct) / float64(len(labels))
}

// CopyParamsFrom copies all parameter values from src (same architecture).
func (m *Model) CopyParamsFrom(src *Model) {
	sp := src.Params()
	dp := m.Params()
	if len(sp) != len(dp) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i := range dp {
		dp[i].W.CopyFrom(sp[i].W)
	}
}
