package ps

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// threeLCConfig is the end-to-end benchmark's 3LC worker: s = 1.75 with
// zero-run encoding, the training driver's exemption size, one goroutine.
func threeLCConfig() Config {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 1)
	cfg.MinCompressElems = 256
	return cfg
}

// unrecorded makes w reduce every G itself: no backward records for it.
func unrecorded(w *Worker) *Worker {
	for _, p := range w.params {
		p.RecordMax(nil)
	}
	return w
}

// maxAbsPasses compresses w's gradients and returns the wires and how many
// read-only |max| sweeps (Blocks.MaxAbs) the push took.
func maxAbsPasses(w *Worker) ([][]byte, int) {
	n := 0
	kernel.PassHook = func(pass string, _ int) {
		if pass == "maxabs" {
			n++
		}
	}
	defer func() { kernel.PassHook = nil }()
	wires, _ := w.CompressGrads()
	return wires, n
}

// sameWorkers fails the test unless a and b pushed the same wires and hold
// the same residuals, bit for bit.
func sameWorkers(t *testing.T, at string, a, b *Worker, wa, wb [][]byte) {
	t.Helper()
	for i, p := range a.params {
		if string(wa[i]) != string(wb[i]) {
			t.Fatalf("%s: %s: the push wires differ", at, p.Name)
		}
		for j, v := range p.G.Data() {
			if u := b.params[i].G.Data()[j]; math.Float32bits(v) != math.Float32bits(u) {
				t.Fatalf("%s: %s[%d]: residual %x, want %x", at, p.Name, j, math.Float32bits(v), math.Float32bits(u))
			}
		}
	}
}

// TestRecordedPassOneMatchesMaxAbs trains a worker whose Linear weights'
// backward records compress pass 1 beside one that reduces every G with
// Blocks.MaxAbs, for 50 steps through a server, on the end-to-end
// benchmark's MLP and on MicroResNet, whose convolutions record nothing
// and fall back: every push wire and every residual must match bit for
// bit, and the recording worker must sweep only the tensors no backward
// recorded. Under the race detector, which slows the layers' loops tenfold
// and has no goroutines to watch here, it runs 5 steps.
func TestRecordedPassOneMatchesMaxAbs(t *testing.T) {
	steps := 50
	if raceDetector {
		steps = 5
	}
	for _, c := range []struct {
		name  string
		build func() *nn.Model
		x     []int
	}{
		{"mlp", func() *nn.Model { return nn.NewMLP(768, []int{1024, 1024}, 10, 1) }, []int{4, 768}},
		{"microresnet", func() *nn.Model { return nn.NewMicroResNet(nn.DefaultMicroResNet()) }, []int{4, 3, 16, 16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := threeLCConfig()
			global := c.build()
			server := NewJob(global, cfg)
			rec := NewWorker(0, c.build(), cfg)
			ref := unrecorded(NewWorker(0, c.build(), cfg))
			swept, recorded := 0, 0
			for _, p := range rec.params {
				if cfg.Compresses(p) {
					swept++
				}
			}
			nn.Walk(rec.Model.Net, func(l nn.Layer) {
				if lin, ok := l.(*nn.Linear); ok && cfg.Compresses(lin.Weight) {
					recorded++
				}
			})
			rng := tensor.NewRNG(17)
			x := tensor.New(c.x...)
			labels := make([]int, c.x[0])
			for step := 0; step < steps; step++ {
				tensor.FillNormal(x, 1, rng)
				for i := range labels {
					labels[i] = rng.Intn(10)
				}
				rec.Model.TrainStep(x, labels)
				ref.Model.TrainStep(x, labels)
				wa, na := maxAbsPasses(rec)
				wb, nb := maxAbsPasses(ref)
				at := fmt.Sprintf("step %d", step)
				sameWorkers(t, at, rec, ref, wa, wb)
				if nb != swept || na != swept-recorded {
					t.Fatalf("%s: %d and %d |max| sweeps, want %d recording and %d not", at, na, nb, swept-recorded, swept)
				}
				server.BeginStep()
				if _, err := server.AddPush(0, wa); err != nil {
					t.Fatal(err)
				}
				if _, _, err := server.FinishStep(); err != nil {
					t.Fatal(err)
				}
				for _, w := range []*Worker{rec, ref} {
					if _, err := w.ApplyPull(server.OwnerPull()); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestStaleRecordIsNotEncoded writes a G after the backward that recorded
// it, by hand (after ZeroGrad, the way a caller writes G) or by
// RestoreState: the push must reduce the G that is there, as a worker that
// never records does, not use the stale record.
func TestStaleRecordIsNotEncoded(t *testing.T) {
	cfg := threeLCConfig()
	build := func() *nn.Model { return nn.NewMLP(40, []int{300}, 10, 3) }
	rng := tensor.NewRNG(23)
	x := tensor.New(4, 40)
	tensor.FillNormal(x, 1, rng)
	labels := []int{1, 4, 7, 9}
	for _, write := range []string{"by hand", "RestoreState"} {
		t.Run(write, func(t *testing.T) {
			rec := NewWorker(0, build(), cfg)
			ref := unrecorded(NewWorker(0, build(), cfg))
			rec.Model.TrainStep(x, labels)
			ref.Model.TrainStep(x, labels)
			snapshot := ref.AppendState(nil) // the residual of a step later undone
			wa, _ := rec.CompressGrads()
			wb, _ := ref.CompressGrads()
			sameWorkers(t, "the step before", rec, ref, wa, wb)
			for _, w := range []*Worker{rec, ref} {
				w.Model.TrainStep(x, labels)
				switch write {
				case "by hand":
					w.Model.ZeroGrad()
					fill := tensor.NewRNG(29)
					for _, p := range w.params {
						tensor.FillNormal(p.G, 10, fill)
					}
				case "RestoreState":
					if err := w.RestoreState(snapshot); err != nil {
						t.Fatal(err)
					}
				}
			}
			wa, na := maxAbsPasses(rec)
			wb, nb := maxAbsPasses(ref)
			sameWorkers(t, "after the write", rec, ref, wa, wb)
			if na != nb {
				t.Fatalf("%d |max| sweeps after the write, want %d", na, nb)
			}
		})
	}
}
