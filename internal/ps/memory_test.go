package ps

import (
	"runtime"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// TestJobSumsIntoModelG is the memory guard of the server's gradient sums:
// tensor i's sum is the served model's params[i].G, not a buffer of the
// job's own. NewJob plus one step over the end-to-end benchmark's
// 1.85M-parameter MLP allocate a model's worth of pull state (3LC's error
// buffers; under float32 the raw pull wires) and a model's worth of
// optimizer velocity, plus wires and bookkeeping of a few kilobytes; a
// private sum would add a third model's worth, so the job's allocations
// must stay under three.
func TestJobSumsIntoModelG(t *testing.T) {
	for _, c := range []struct {
		name   string
		scheme compress.Scheme
		opts   compress.Options
	}{
		{"3lc", compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}},
		{"float32", compress.SchemeNone, compress.Options{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(c.scheme, c.opts, 2)
			global := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
			rng := tensor.NewRNG(7)
			pushes := make([][][]byte, cfg.Workers)
			for id := range pushes {
				m := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
				m.CopyParamsFrom(global)
				for _, p := range m.Params() {
					tensor.FillNormal(p.G, 0.01, rng)
				}
				pushes[id], _ = NewWorker(id, m, cfg).CompressGrads()
			}
			modelBytes := uint64(4 * global.NumParams())

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			job := NewJob(global, cfg)
			job.BeginStep()
			for id, wires := range pushes {
				if _, err := job.AddPush(id, wires); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := job.FinishStep(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 3*modelBytes && !raceDetector {
				t.Errorf("NewJob and one step allocated %.2f model sizes (%d B), want under 3: pull state, velocity and less than one more", float64(alloc)/float64(modelBytes), alloc)
			}
			for i, p := range global.Params() {
				switch sum, _, _, _ := job.stepFor(i); {
				case OwnerOnly(p):
					if sum != nil {
						t.Errorf("%s, whose update its owner pushes, is swept", p.Name)
					}
				case &sum[0] != &p.G.Data()[0] || len(sum) != p.G.Len():
					t.Errorf("the sum of %s is not its G", p.Name)
				}
			}
		})
	}
}

// TestFloat32WorkerAllocatesNoWire is the memory guard of a float32
// worker's pushes: each wire is a view of the replica's G (NewWorker), so
// NewWorker plus two CompressGrads over the end-to-end benchmark's
// 1.85M-parameter MLP allocate contexts and bookkeeping of a few kilobytes.
// A worker that copied G into push wires of its own would allocate 1.125
// model sizes of them (kernel.AppendRaw's headroom), so the worker's
// allocations must stay under one.
func TestFloat32WorkerAllocatesNoWire(t *testing.T) {
	cfg := testConfig(compress.SchemeNone, compress.Options{}, 2)
	m := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
	rng := tensor.NewRNG(7)
	for _, p := range m.Params() {
		tensor.FillNormal(p.G, 0.01, rng)
	}
	modelBytes := uint64(4 * m.NumParams())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewWorker(1, m, cfg)
	w.CompressGrads()
	wires, _ := w.CompressGrads()
	runtime.ReadMemStats(&after)

	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= modelBytes && !raceDetector {
		t.Errorf("NewWorker and two CompressGrads allocated %.2f model sizes (%d B), want under 1: the push wires are G's memory", float64(alloc)/float64(modelBytes), alloc)
	}
	want := 0
	for _, p := range m.Params() {
		if Pushes(w.ID, p) {
			want += 1 + 4*p.W.Len()
		}
	}
	if got := WireBytes(wires); got != want {
		t.Errorf("the push is %d bytes, want %d: a scheme byte and 4 bytes a parameter of each tensor worker %d pushes", got, want, w.ID)
	}
}

// TestExchangeAllocatesNothingAtAnyGOMAXPROCS is the allocation guard of a
// node's codec work where the cores are many: at GOMAXPROCS 4, with the
// default Config, a warm step of the owner's CompressGrads, the job's
// AddPush and FinishStep and the owner's ApplyPull allocates nothing, under
// every design. testing.AllocsPerRun would pin GOMAXPROCS to 1, so the
// steps are counted with runtime.ReadMemStats; the backward that fills G
// runs outside the count.
func TestExchangeAllocatesNothingAtAnyGOMAXPROCS(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's runtime allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, tensor.NewRNG(21))
	labels := []int{0, 1, 2, 0, 1}
	for _, sc := range designs {
		t.Run(sc.name, func(t *testing.T) {
			cfg := testConfig(sc.s, sc.o, 1)
			global := testModel(1)
			job := NewJob(global, cfg)
			m := testModel(1)
			m.CopyParamsFrom(global)
			w := NewWorker(Owner, m, cfg)
			var before, after runtime.MemStats
			var mallocs uint64
			const warm, steps = 3, 10
			for step := range warm + steps {
				w.Model.TrainStep(x, labels)
				runtime.ReadMemStats(&before)
				wires, _ := w.CompressGrads()
				job.BeginStep()
				if _, err := job.AddPush(w.ID, wires); err != nil {
					t.Fatal(err)
				}
				if _, _, err := job.FinishStep(); err != nil {
					t.Fatal(err)
				}
				if _, err := w.ApplyPull(job.OwnerPull()); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if step >= warm {
					mallocs += after.Mallocs - before.Mallocs
				}
			}
			if mallocs != 0 {
				t.Errorf("a warm step allocates %.1f objects at GOMAXPROCS %d, want 0", float64(mallocs)/steps, runtime.GOMAXPROCS(0))
			}
		})
	}
}
