package ps

import (
	"math"
	"sync"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// runPair drives `steps` full push/pull rounds on a 2-worker cluster with
// the given config mutation, returning the final global parameter data.
func runPair(t *testing.T, mut func(*Config), ingest func(t *testing.T, s *Job, workerID int, wires [][]byte)) [][]float32 {
	t.Helper()
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}, 2)
	if mut != nil {
		mut(&cfg)
	}
	global := testModel(1)
	server := NewJob(global, cfg)
	workers := make([]*Worker, 2)
	for id := range workers {
		m := testModel(1)
		m.CopyParamsFrom(global)
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
			ingest(t, server, w.ID, wires)
		}
		pull, _, err := server.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			if _, err := w.ApplyPull(pull); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out [][]float32
	for _, p := range global.Params() {
		out = append(out, append([]float32(nil), p.W.Data()...))
	}
	return out
}

func ingestWhole(t *testing.T, s *Job, workerID int, wires [][]byte) {
	t.Helper()
	if _, err := s.AddPush(workerID, wires); err != nil {
		t.Fatal(err)
	}
}

// TestFusedAggregateMatchesStaged pins the fused decode-accumulate server
// (and fused worker apply) against the staged decode-then-add reference:
// after several training steps the global model state must be
// bit-identical.
func TestFusedAggregateMatchesStaged(t *testing.T) {
	fused := runPair(t, nil, ingestWhole)
	staged := runPair(t, func(c *Config) { c.StagedAggregate = true }, ingestWhole)
	assertSameState(t, fused, staged, "staged")
}

// TestAddPushTensorMatchesAddPush pins the per-tensor ingestion API
// (a PushSession fed by Tensor, the overlapped-pipeline entry) against
// the whole-set AddPush driver.
func TestAddPushTensorMatchesAddPush(t *testing.T) {
	whole := runPair(t, nil, ingestWhole)
	perTensor := runPair(t, nil, func(t *testing.T, s *Job, workerID int, wires [][]byte) {
		t.Helper()
		push := s.BeginPush(workerID)
		for i, wire := range wires {
			if err := push.Tensor(i, wire); err != nil {
				t.Fatal(err)
			}
		}
		if err := push.End(); err != nil {
			t.Fatal(err)
		}
	})
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
// zero-then-add, for negative, zero and negative-zero scales and for raw
// floats carrying −0), followed by repeated adds that include exact
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
	// the wire of −g (cancels g exactly), and raw float32 g with −0 in
	// every other zero slot.
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
			compress.New(compress.SchemeNone, p.W.Shape(), compress.Options{}).CompressInto(raw, nil),
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
					for j, x := range s.gradSum[i].Data() {
						if math.Float32bits(x) == 1<<31 {
							t.Fatalf("tier %v step %d push %d: gradSum[%d][%d] is −0 after variant %d", tier, step, push, i, j, v)
						}
					}
				}
			}
		}
	}
}
