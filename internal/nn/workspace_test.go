package nn

import (
	"math"
	"testing"

	"threelc/internal/tensor"
)

// workspaceCase is one model shape the workspace tests drive: the MLP,
// a MicroResNet with an identity and a projection shortcut, and a VGGNano
// (MaxPool2D, Flatten).
type workspaceCase struct {
	name    string
	build   func() *Model
	example []int // one example's shape
	classes int
}

func workspaceCases() []workspaceCase {
	return []workspaceCase{
		{"mlp", func() *Model { return NewMLP(12, []int{16, 16}, 5, 3) }, []int{12}, 5},
		{"microresnet", func() *Model {
			cfg := DefaultMicroResNet()
			cfg.StageChannels = []int{4, 8} // stage 2 downsamples: projection shortcut
			cfg.ImageSize = 8
			return NewMicroResNet(cfg)
		}, []int{3, 8, 8}, 10},
		{"vggnano", func() *Model {
			cfg := DefaultVGGNano()
			cfg.StageChannels = []int{4, 8}
			cfg.HiddenFC = 32
			cfg.ImageSize = 8
			return NewVGGNano(cfg)
		}, []int{3, 8, 8}, 10},
	}
}

// batch draws n random examples and labels from seed.
func (c workspaceCase) batch(n int, seed uint64) (*tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.New(append([]int{n}, c.example...)...)
	tensor.FillNormal(x, 1, rng)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(c.classes)
	}
	return x, labels
}

// firstDiff returns the first index where a and b differ bit for bit, or
// -1 when they are identical.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestWorkspacesMatchFreshBuffers is the bit-identity oracle for the
// per-layer workspaces. One model is driven through a training batch, an
// evaluation batch far larger, a partial one, a smaller training batch and
// the first batch size again, so every workspace is grown, re-viewed
// smaller and reused with stale contents. Its twin is rebuilt before every
// call (parameters and batch-norm statistics copied over), so each of its
// calls runs on freshly allocated, zeroed buffers. Loss, every gradient and
// the logits must agree bit for bit.
func TestWorkspacesMatchFreshBuffers(t *testing.T) {
	calls := []struct {
		train bool
		n     int
	}{{true, 4}, {false, 300}, {false, 37}, {true, 3}, {true, 4}}
	for _, c := range workspaceCases() {
		t.Run(c.name, func(t *testing.T) {
			m, twin := c.build(), c.build()
			for i, call := range calls {
				fresh := c.build()
				fresh.CopyParamsFrom(twin)
				CopyBatchNormStats(fresh, twin)
				twin = fresh

				x, labels := c.batch(call.n, uint64(i+1))
				if !call.train {
					got, want := m.Net.Forward(x, false), twin.Net.Forward(x, false)
					if j := firstDiff(got.Data(), want.Data()); j >= 0 {
						t.Fatalf("call %d (eval, batch %d): logits differ at %d", i, call.n, j)
					}
					continue
				}
				got, want := m.TrainStep(x, labels), twin.TrainStep(x, labels)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("call %d (train, batch %d): loss %v, fresh buffers give %v", i, call.n, got, want)
				}
				tp := twin.Params()
				for k, p := range m.Params() {
					if j := firstDiff(p.G.Data(), tp[k].G.Data()); j >= 0 {
						t.Fatalf("call %d (train, batch %d): %s gradient differs at %d", i, call.n, p.Name, j)
					}
					p.W.AXPY(-0.05, p.G)
					tp[k].W.AXPY(-0.05, tp[k].G)
				}
			}
		})
	}
}

// TestTrainStepZeroAllocs pins the workspace contract's cost: a warm
// TrainStep allocates nothing, neither does a warm evaluation, and neither
// does a TrainStep after an evaluation at a larger batch and a smaller
// training batch have re-viewed every workspace.
func TestTrainStepZeroAllocs(t *testing.T) {
	for _, c := range workspaceCases() {
		t.Run(c.name, func(t *testing.T) {
			m := c.build()
			x, labels := c.batch(4, 1)
			m.TrainStep(x, labels)
			if allocs := testing.AllocsPerRun(10, func() { m.TrainStep(x, labels) }); allocs != 0 {
				t.Errorf("warm TrainStep: %v allocs per call, want 0", allocs)
			}
			big, bigLabels := c.batch(300, 2)
			m.Accuracy(big, bigLabels)
			if allocs := testing.AllocsPerRun(2, func() { m.Accuracy(big, bigLabels) }); allocs != 0 {
				t.Errorf("warm Accuracy: %v allocs per call, want 0", allocs)
			}
			xs, ls := c.batch(3, 3)
			if allocs := testing.AllocsPerRun(10, func() {
				m.TrainStep(xs, ls)
				m.TrainStep(x, labels)
			}); allocs != 0 {
				t.Errorf("TrainStep after a batch-size round trip: %v allocs per pair, want 0", allocs)
			}
		})
	}
}

// benchCases are the layer benchmarks' models: mlp is the end-to-end
// benchmark's (768 -> 1024 -> 1024 -> 10), tiny its small-tensor one
// (768 -> 64 hidden layers of 48 -> 10), whose 48-wide layers are where a
// per-row cost in backward shows, and microresnet the default residual
// CNN.
func benchCases() []workspaceCase {
	hidden := make([]int, 64)
	for i := range hidden {
		hidden[i] = 48
	}
	return []workspaceCase{
		{"mlp", func() *Model { return NewMLP(768, []int{1024, 1024}, 10, 1) }, []int{768}, 10},
		{"tiny", func() *Model { return NewMLP(768, hidden, 10, 1) }, []int{768}, 10},
		{"microresnet", func() *Model { return NewMicroResNet(DefaultMicroResNet()) }, []int{3, 16, 16}, 10},
	}
}

// BenchmarkTrainStep times one warm forward and backward pass at batch 4.
func BenchmarkTrainStep(b *testing.B) {
	for _, c := range benchCases() {
		b.Run(c.name, func(b *testing.B) {
			m := c.build()
			x, labels := c.batch(4, 1)
			m.TrainStep(x, labels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainStep(x, labels)
			}
		})
	}
}

// BenchmarkAccuracy times one warm evaluation of 300 rows, the end-to-end
// benchmark's held-out set: the forward walks them EvalRows at a time
// through the layers' workspaces, so it allocates nothing.
func BenchmarkAccuracy(b *testing.B) {
	for _, c := range benchCases() {
		b.Run(c.name, func(b *testing.B) {
			m := c.build()
			x, labels := c.batch(300, 1)
			m.Accuracy(x, labels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Accuracy(x, labels)
			}
		})
	}
}
