package ps

import (
	"math"
	"sync"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/tensor"
)

// aggregator is the server side runPair drives: the Job, the Job fed
// tensor by tensor, or the staged oracle.
type aggregator interface {
	BeginStep()
	AddPush(workerID int, wires [][]byte) (time.Duration, error)
	FinishStep() ([][]byte, time.Duration, error)
}

func fusedJob(m *nn.Model, cfg Config) aggregator { return NewJob(m, cfg) }

// runPair drives four full push/pull rounds on a 2-worker cluster whose
// server is built by mk and whose workers apply the pull through apply,
// returning the final global parameter data and worker 1's replica.
func runPair(t *testing.T, cfg Config, mk func(*nn.Model, Config) aggregator, apply func(*Worker, [][]byte) (time.Duration, error)) (global, replica [][]float32) {
	t.Helper()
	model := testModel(1)
	server := mk(model, cfg)
	workers := make([]*Worker, 2)
	for id := range workers {
		m := testModel(1)
		m.CopyParamsFrom(model)
		workers[id] = NewWorker(id, m, cfg)
	}
	rng := tensor.NewRNG(77)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}

	for step := 0; step < 4; step++ {
		server.BeginStep()
		for _, w := range workers {
			w.Model.TrainStep(x, labels)
			wires, _ := w.CompressGrads()
			if _, err := server.AddPush(w.ID, wires); err != nil {
				t.Fatal(err)
			}
		}
		pull, _, err := server.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			if _, err := apply(w, pull); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func(m *nn.Model) (out [][]float32) {
		for _, p := range m.Params() {
			out = append(out, append([]float32(nil), p.W.Data()...))
		}
		return out
	}
	return snapshot(model), snapshot(workers[1].Model)
}

// stagedJob is the reference the fused Job is held to, one separate sweep
// per stage and no kernel of this package's hot path: every push is decoded
// into scratch and then added to a sum zeroed at the start of the step, the
// sum is averaged into p.G, opt.ApplyWithDelta updates the model and
// materializes the delta, and the pull contexts (Job's, seed for seed) run
// their whole CompressInto over it.
type stagedJob struct {
	params  []*nn.Param
	sgd     *opt.SGD
	pullCtx []compress.Compressor
	sum     []*tensor.Tensor
	delta   []*tensor.Tensor
	pushes  int
}

func newStagedJob(m *nn.Model, cfg Config) aggregator {
	s := &stagedJob{params: m.Params(), sgd: opt.NewSGD(cfg.Optimizer)}
	for i, p := range s.params {
		s.pullCtx = append(s.pullCtx, cfg.newContext(p, 0x5345525645520000+uint64(i))) // newJob's seed
		s.sum = append(s.sum, tensor.New(p.W.Shape()...))
		s.delta = append(s.delta, tensor.New(p.W.Shape()...))
	}
	return s
}

// decodeThenAdd is the staged accumulation: decode the wire into a scratch
// tensor, then add it to dst in a separate sweep.
func decodeThenAdd(wire []byte, dst *tensor.Tensor) error {
	scratch := tensor.New(dst.Shape()...)
	if err := compress.DecompressInto(wire, scratch); err != nil {
		return err
	}
	dst.Add(scratch)
	return nil
}

func (s *stagedJob) BeginStep() {
	for _, g := range s.sum {
		g.Zero()
	}
	s.pushes = 0
}

func (s *stagedJob) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	for i, p := range s.params {
		if p.NoCompress && workerID != 0 {
			continue
		}
		if err := decodeThenAdd(wires[i], s.sum[i]); err != nil {
			return 0, err
		}
	}
	s.pushes++
	return 0, nil
}

func (s *stagedJob) FinishStep() ([][]byte, time.Duration, error) {
	for i, p := range s.params {
		if !p.NoCompress { // a NoCompress tensor has one owner: its gradient is used as is
			s.sum[i].Scale(1 / float32(s.pushes))
		}
		p.G.CopyFrom(s.sum[i])
	}
	s.sgd.ApplyWithDelta(s.params, s.delta)
	pull := make([][]byte, len(s.params))
	for i, ctx := range s.pullCtx {
		pull[i] = ctx.CompressInto(s.delta[i], nil)
	}
	return pull, 0, nil
}

// stagedApplyPull is the worker half of the reference.
func stagedApplyPull(w *Worker, wires [][]byte) (time.Duration, error) {
	for i, p := range w.Model.Params() {
		if err := decodeThenAdd(wires[i], p.W); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// TestFusedAggregateMatchesStaged pins the fused server (first-add /
// decode-accumulate, the one SGD sweep in both its forms, encode-only pull)
// and the fused worker apply against the staged reference above, for every
// design of the tier matrix: after several training steps the global model
// and a worker's replica must be bit-identical.
func TestFusedAggregateMatchesStaged(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			cfg := testConfig(d.s, d.o, 2)
			global, replica := runPair(t, cfg, fusedJob, (*Worker).ApplyPull)
			wantGlobal, wantReplica := runPair(t, cfg, newStagedJob, stagedApplyPull)
			assertSameState(t, global, wantGlobal, "staged global")
			assertSameState(t, replica, wantReplica, "staged replica")
		})
	}
}

// perTensorJob feeds a Job's pushes through the per-tensor session API.
type perTensorJob struct{ *Job }

func (j perTensorJob) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	push := j.BeginPush(workerID)
	for i, wire := range wires {
		if err := push.Tensor(i, wire); err != nil {
			return 0, err
		}
	}
	return 0, push.End()
}

// TestAddPushTensorMatchesAddPush pins the per-tensor ingestion API
// (a PushSession fed by Tensor, the overlapped-pipeline entry) against
// the whole-set AddPush driver.
func TestAddPushTensorMatchesAddPush(t *testing.T) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 2)
	whole, _ := runPair(t, cfg, fusedJob, (*Worker).ApplyPull)
	perTensor, _ := runPair(t, cfg, func(m *nn.Model, cfg Config) aggregator {
		return perTensorJob{NewJob(m, cfg)}
	}, (*Worker).ApplyPull)
	assertSameState(t, perTensor, whole, "whole-set")
}

func assertSameState(t *testing.T, got, want [][]float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tensor count %d vs %d", len(got), len(want))
	}
	for ti := range got {
		for i := range got[ti] {
			if math.Float32bits(got[ti][i]) != math.Float32bits(want[ti][i]) {
				t.Fatalf("tensor %d elem %d: %x differs from %s reference %x",
					ti, i, math.Float32bits(got[ti][i]), label, math.Float32bits(want[ti][i]))
			}
		}
	}
}

// TestCompressGradsStreamMatches pins the streaming compressor: the
// emitted (index, wire) pairs must cover every tensor exactly once and
// byte-match the whole-set CompressGrads output of an identical worker.
func TestCompressGradsStreamMatches(t *testing.T) {
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}, 1)
	cfg.Parallelism = 4
	mk := func() *Worker {
		m := testModel(3)
		return NewWorker(0, m, cfg)
	}
	a, b := mk(), mk()
	rng := tensor.NewRNG(9)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}
	for step := 0; step < 3; step++ {
		a.Model.TrainStep(x, labels)
		b.Model.TrainStep(x, labels)
		want, _ := a.CompressGrads()

		got := make([][]byte, len(want))
		var mu sync.Mutex
		_, _ = b.CompressGradsStream(func(i int, wire []byte) {
			mu.Lock()
			defer mu.Unlock()
			if got[i] != nil {
				t.Errorf("tensor %d emitted twice", i)
			}
			got[i] = append([]byte(nil), wire...)
		})
		for i := range want {
			if got[i] == nil {
				t.Fatalf("step %d: tensor %d never emitted", step, i)
			}
			if string(got[i]) != string(want[i]) {
				t.Fatalf("step %d: streamed wire %d differs from CompressGrads", step, i)
			}
		}
	}
}

// TestGradSumNeverHoldsNegativeZero is the property the zero-run skip
// rests on at the server: whatever wires arrive, in whatever order, a
// gradient sum never holds −0 — so skipping a run is bit-identical to
// adding m·0 through it (compress.DecompressAddInto). The step's first
// accumulation is covered in both its forms (set, for a positive scale;
// zero-then-add, for negative, zero and negative-zero scales and for
// floats, raw and packed, carrying −0), followed by repeated adds that include exact
// cancellations (x + (−x)) and −0 operands, over stale buffers left by
// earlier steps, on every kernel tier.
func TestGradSumNeverHoldsNegativeZero(t *testing.T) {
	orig := kernel.ActiveTier()
	defer kernel.SetTier(orig)
	negZero := math.Float32frombits(1 << 31)

	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 2)
	model := nn.NewMLP(64, []int{96}, 10, 1) // 6144-element weight: ScaledLUT path; the rest: small path
	params := model.Params()

	// Per tensor, the wire variants of one sparse gradient g: its 3LC wire
	// (positive scale), the same wire with the scale negated, zeroed and
	// set to −0 (hostile: nonzero digits under a zero scale decode to ±0),
	// the wire of −g (cancels g exactly), and float32 g with −0 in every
	// other zero slot, raw and packed.
	variants := make([][][]byte, len(params))
	rng := tensor.NewRNG(5)
	for i, p := range params {
		g := tensor.New(p.W.Shape()...)
		neg := tensor.New(p.W.Shape()...)
		raw := tensor.New(p.W.Shape()...)
		for j := range g.Data() {
			if rng.Uint64()%16 == 0 {
				v := float32(rng.Uint64()%7) - 3
				g.Data()[j], neg.Data()[j], raw.Data()[j] = v, -v, v
			} else if j%2 == 0 {
				raw.Data()[j] = negZero
			}
		}
		opts := compress.Options{Sparsity: 1.75, ZeroRun: true}
		pos := compress.New(compress.SchemeThreeLC, p.W.Shape(), opts).CompressInto(g, nil)
		withScale := func(b1, b2, b3, b4 byte) []byte {
			w := append([]byte(nil), pos...)
			w[1], w[2], w[3], w[4] = b1, b2, b3, b4 // scale: wire bytes [1,5) little-endian
			return w
		}
		variants[i] = [][]byte{
			pos,
			withScale(pos[1], pos[2], pos[3], pos[4]|0x80),
			withScale(0, 0, 0, 0),
			withScale(0, 0, 0, 0x80),
			compress.New(compress.SchemeThreeLC, p.W.Shape(), opts).CompressInto(neg, nil),
			rawWire(raw),
			compress.NewExempt(compress.SchemeThreeLC, p.W.Shape()).CompressInto(raw, nil),
		}
	}

	for _, tier := range kernel.AvailableTiers() {
		kernel.SetTier(tier)
		s := NewJob(model, cfg)
		order := tensor.NewRNG(11)
		for step := 0; step < 40; step++ {
			s.BeginStep()
			for push := 0; push < 2+step%4; push++ {
				for i := range params {
					v := int(order.Uint64() % uint64(len(variants[i])))
					if step < len(variants[i]) && push == 0 {
						v = step // every variant takes the first-accumulation slot once
					}
					if err := s.decodeAdd(i, variants[i][v]); err != nil {
						t.Fatal(err)
					}
					for j, x := range s.params[i].G.Data() {
						if math.Float32bits(x) == 1<<31 {
							t.Fatalf("tier %v step %d push %d: sum %d element %d is −0 after variant %d", tier, step, push, i, j, v)
						}
					}
				}
			}
		}
	}
}
