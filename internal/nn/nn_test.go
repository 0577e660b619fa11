package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"threelc/internal/tensor"
)

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := tensor.New(2, 4) // all zeros -> uniform distribution
	loss := l.Forward(logits, []int{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln(4) = %v", loss, want)
	}
}

func TestSoftmaxCrossEntropyConfident(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float32{100, 0, 0}, 1, 3)
	loss := l.Forward(logits, []int{0})
	if loss > 1e-6 {
		t.Errorf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestSoftmaxBackwardSumsToZero(t *testing.T) {
	// d(loss)/d(logits) rows sum to zero (softmax minus one-hot).
	l := NewSoftmaxCrossEntropy()
	rng := tensor.NewRNG(1)
	logits := tensor.New(4, 6)
	tensor.FillNormal(logits, 2, rng)
	l.Forward(logits, []int{0, 1, 2, 3})
	g := l.Backward()
	for r := 0; r < 4; r++ {
		var s float64
		for c := 0; c < 6; c++ {
			s += float64(g.At(r, c))
		}
		if math.Abs(s) > 1e-5 {
			t.Errorf("row %d gradient sums to %v", r, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float32{1e4, -1e4}, 1, 2)
	loss := l.Forward(logits, []int{1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Errorf("loss must be finite, got %v", loss)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	y := r.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Errorf("ReLU forward: %v", y)
	}
	dx := r.Backward(tensor.FromSlice([]float32{5, 5, 5}, 3))
	if dx.Data()[0] != 0 || dx.Data()[1] != 0 || dx.Data()[2] != 5 {
		t.Errorf("ReLU backward: %v", dx)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Errorf("pool forward: %v", y)
	}
	dx := g.Backward(tensor.FromSlice([]float32{4, 8}, 1, 2))
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Errorf("pool backward: %v", dx)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4)
	y := f.Forward(x, true)
	if len(y.Shape()) != 2 || y.Shape()[1] != 12 {
		t.Errorf("flatten shape: %v", y.Shape())
	}
	dx := f.Backward(tensor.New(2, 12))
	if len(dx.Shape()) != 3 {
		t.Errorf("unflatten shape: %v", dx.Shape())
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	bn := NewBatchNorm1D("bn", 3)
	rng := tensor.NewRNG(2)
	x := tensor.New(64, 3)
	tensor.FillNormal(x, 4, rng)
	y := bn.Forward(x, true)
	for j := 0; j < 3; j++ {
		var sum, sq float64
		for i := 0; i < 64; i++ {
			v := float64(y.At(i, j))
			sum += v
			sq += v * v
		}
		mean := sum / 64
		variance := sq/64 - mean*mean
		if math.Abs(mean) > 1e-4 {
			t.Errorf("feature %d mean %v, want ~0", j, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("feature %d var %v, want ~1", j, variance)
		}
	}
}

func TestBatchNormParamsAreNoCompress(t *testing.T) {
	bn1 := NewBatchNorm1D("a", 4)
	bn2 := NewBatchNorm2D("b", 4)
	for _, p := range append(bn1.Params(), bn2.Params()...) {
		if !p.NoCompress {
			t.Errorf("%s must be NoCompress (paper §5.1)", p.Name)
		}
	}
}

func TestModelCorrectAndAccuracy(t *testing.T) {
	m := NewMLP(4, []int{6}, 3, 1)
	rng := tensor.NewRNG(3)
	x := tensor.New(5, 4)
	tensor.FillNormal(x, 1, rng)
	logits := m.Net.Forward(x, false).Data()
	pred := make([]int, 5)
	for i := range pred {
		for j := 1; j < 3; j++ {
			if logits[i*3+j] > logits[i*3+pred[i]] {
				pred[i] = j
			}
		}
	}
	if got := m.Correct(x, pred); got != 5 {
		t.Errorf("Correct against own predictions = %d, want 5", got)
	}
	if acc := m.Accuracy(x, pred); acc != 1 {
		t.Errorf("accuracy against own predictions = %v", acc)
	}
	pred[2] = (pred[2] + 1) % 3
	if acc := m.Accuracy(x, pred); acc != 0.8 {
		t.Errorf("accuracy with one wrong label = %v, want 0.8", acc)
	}
}

// TestAccuracyEdgeInputs pins the evaluator's answers off the happy path:
// no rows score 0 (not 0/0), and a label count that is not the row count
// panics naming both counts.
func TestAccuracyEdgeInputs(t *testing.T) {
	m := NewMLP(4, []int{6}, 3, 1)
	if acc := m.Accuracy(tensor.New(0, 4), nil); acc != 0 {
		t.Errorf("accuracy on no rows = %v, want 0", acc)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "4 labels") || !strings.Contains(msg, "5 rows") {
			t.Errorf("mismatched labels: panic %q, want both counts named", msg)
		}
	}()
	m.Accuracy(tensor.New(5, 4), make([]int, 4))
}

func TestModelParamNamesUnique(t *testing.T) {
	cfg := DefaultMicroResNet()
	cfg.BlocksPerStage = 2
	m := NewMicroResNet(cfg)
	seen := make(map[string]bool)
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Errorf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if m.NumParams() == 0 {
		t.Fatal("model has no parameters")
	}
}

func TestCopyParamsFrom(t *testing.T) {
	a := NewMLP(4, []int{3}, 2, 1)
	b := NewMLP(4, []int{3}, 2, 99)
	b.CopyParamsFrom(a)
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		if !ap[i].W.Equal(bp[i].W) {
			t.Errorf("param %s not copied", ap[i].Name)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// One model, one batch, repeated steps: loss must drop monotonically
	// in trend (simple SGD on the param tensors directly).
	m := NewMLP(6, []int{8}, 3, 4)
	rng := tensor.NewRNG(5)
	x := tensor.New(9, 6)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	first := m.TrainStep(x, labels)
	var last float64
	for i := 0; i < 60; i++ {
		last = m.TrainStep(x, labels)
		for _, p := range m.Params() {
			p.W.AXPY(-0.1, p.G)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v last %v", first, last)
	}
}

func TestMicroResNetForwardShapes(t *testing.T) {
	cfg := DefaultMicroResNet()
	m := NewMicroResNet(cfg)
	x := tensor.New(2, 3, 16, 16)
	logits := m.Net.Forward(x, true)
	shape := logits.Shape()
	if len(shape) != 2 || shape[0] != 2 || shape[1] != 10 {
		t.Fatalf("logits shape %v", shape)
	}
}

func TestMicroResNetTrains(t *testing.T) {
	cfg := DefaultMicroResNet()
	cfg.StageChannels = []int{4, 8}
	cfg.ImageSize = 8
	m := NewMicroResNet(cfg)
	rng := tensor.NewRNG(6)
	x := tensor.New(4, 3, 8, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 3}
	first := m.TrainStep(x, labels)
	var last float64
	for i := 0; i < 30; i++ {
		last = m.TrainStep(x, labels)
		for _, p := range m.Params() {
			p.W.AXPY(-0.05, p.G)
		}
	}
	if last >= first {
		t.Errorf("ResNet loss did not decrease: %v -> %v", first, last)
	}
}

func TestWalkVisitsAllParams(t *testing.T) {
	cfg := DefaultMicroResNet()
	m := NewMicroResNet(cfg)
	var n int
	Walk(m.Net, func(l Layer) {
		n += len(l.Params())
	})
	// ResidualBlock.Params() double-counts nested layers when visited
	// both directly and via Walk; count distinct names instead.
	names := make(map[string]bool)
	Walk(m.Net, func(l Layer) {
		for _, p := range l.Params() {
			names[p.Name] = true
		}
	})
	want := make(map[string]bool)
	for _, p := range m.Params() {
		want[p.Name] = true
	}
	for name := range want {
		if !names[name] {
			t.Errorf("Walk missed parameter %q", name)
		}
	}
}

func TestCopyBatchNormStats(t *testing.T) {
	a := NewMLP(4, []int{3}, 2, 1)
	b := NewMLP(4, []int{3}, 2, 1)
	// Train a's BN stats.
	rng := tensor.NewRNG(7)
	x := tensor.New(16, 4)
	tensor.FillNormal(x, 3, rng)
	a.Net.Forward(x, true)
	CopyBatchNormStats(b, a)
	// Eval-mode outputs must now agree.
	ya := a.Net.Forward(x, false)
	yb := b.Net.Forward(x, false)
	if !ya.AlmostEqual(yb, 1e-6) {
		t.Error("eval outputs differ after CopyBatchNormStats")
	}
}

func TestSequentialBackwardOrder(t *testing.T) {
	// Composing linear layers: gradient flows through all of them.
	rng := tensor.NewRNG(8)
	m := &Model{
		Net: NewSequential(
			NewLinear("a", 4, 4, rng),
			NewLinear("b", 4, 4, rng),
			NewLinear("c", 4, 2, rng),
		),
		Loss: NewSoftmaxCrossEntropy(),
	}
	x := tensor.New(2, 4)
	tensor.FillNormal(x, 1, rng)
	m.TrainStep(x, []int{0, 1})
	for _, p := range m.Params() {
		if p.G.MaxAbs() == 0 && p.W.Len() > 2 {
			t.Errorf("parameter %s received no gradient", p.Name)
		}
	}
}

// TestModelParamsBuiltOnce pins the cache: after the first call Params
// allocates nothing — ZeroGrad and every driver ask once a step — returns
// the same parameters in the same order, and leaves no spare capacity for
// a caller's append to write into.
func TestModelParamsBuiltOnce(t *testing.T) {
	m := NewMLP(12, []int{16, 16, 16}, 4, 7)
	want := m.Net.Params()
	got := m.Params()
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("Params: len %d cap %d, want len = cap = %d", len(got), cap(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Params()[%d] differs from the layers' own order", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { m.Params(); m.ZeroGrad() }); allocs != 0 {
		t.Errorf("Params + ZeroGrad: %v allocs per call after the first, want 0", allocs)
	}
}
