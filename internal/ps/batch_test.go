package ps

import (
	"bytes"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// TestBatchedMatchesUnbatchedState pins the small-tensor batching path
// against per-tensor contexts end to end: identical training runs with
// batching on (default threshold) and off (-1) must leave bit-identical
// global model state.
func TestBatchedMatchesUnbatchedState(t *testing.T) {
	batched := runPair(t, nil, ingestWhole)
	unbatched := runPair(t, func(c *Config) { c.SmallTensorElems = -1 }, ingestWhole)
	assertSameState(t, batched, unbatched, "unbatched")
}

// TestBatchedWiresMatchUnbatched compares the actual bytes: every push
// wire a batched worker emits and every pull wire a batched server emits
// must byte-match its unbatched twin, step after step.
func TestBatchedWiresMatchUnbatched(t *testing.T) {
	mk := func(smallTensorElems int) (*Job, *Worker) {
		cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}, 1)
		cfg.SmallTensorElems = smallTensorElems
		global := testModel(1)
		server := NewJob(global, cfg)
		m := testModel(1)
		m.CopyParamsFrom(global)
		return server, NewWorker(0, m, cfg)
	}
	bs, bw := mk(0)  // batched (default threshold covers every test tensor)
	us, uw := mk(-1) // unbatched
	if bw.batch == nil {
		t.Fatal("batched worker built no batch — test model tensors should all qualify")
	}
	if uw.batch != nil || len(uw.jobs) != len(uw.params) {
		t.Fatal("SmallTensorElems=-1 still built a batch")
	}

	rng := tensor.NewRNG(42)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}
	for step := 0; step < 4; step++ {
		bw.Model.TrainStep(x, labels)
		uw.Model.TrainStep(x, labels)
		bWires, _ := bw.CompressGrads()
		uWires, _ := uw.CompressGrads()
		for i := range uWires {
			if !bytes.Equal(bWires[i], uWires[i]) {
				t.Fatalf("step %d: batched push wire %d differs from unbatched", step, i)
			}
		}
		for s, wires := range map[*Job][][]byte{bs: bWires, us: uWires} {
			s.BeginStep()
			if _, err := s.AddPush(0, wires); err != nil {
				t.Fatal(err)
			}
		}
		bPull, _, err := bs.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		uPull, _, err := us.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for i := range uPull {
			if !bytes.Equal(bPull[i], uPull[i]) {
				t.Fatalf("step %d: batched pull wire %d differs from unbatched", step, i)
			}
		}
		if _, err := bw.ApplyPull(bPull); err != nil {
			t.Fatal(err)
		}
		if _, err := uw.ApplyPull(uPull); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchPartition checks the job-list construction on a model mixing
// batched tiny tensors, a large unbatched tensor, and exempt
// (uncompressed) tensors.
func TestBatchPartition(t *testing.T) {
	model := nn.NewMLP(8, []int{6, 7}, 3, 1)
	// Compressed tensors: 8x6=48, 6x7=42, 7x3=21 (biases 6, 7, 3 are
	// below MinCompressElems=8 and stay exempt).
	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}, 1)

	cfg.SmallTensorElems = 45 // batch {42, 21}, leave 48 per-tensor
	w := NewWorker(0, model, cfg)
	if w.batch == nil || len(w.batchIdx) != 2 {
		t.Fatalf("batchIdx = %v, want two members", w.batchIdx)
	}
	for _, bi := range w.batchIdx {
		if n := w.params[bi].W.Len(); n >= 45 || n < 8 {
			t.Fatalf("batched tensor has %d elems, outside [8,45)", n)
		}
	}
	if len(w.jobs) != len(w.params)-1 {
		t.Fatalf("%d jobs for %d params with a 2-member batch", len(w.jobs), len(w.params))
	}
	if w.batch.Elems() != 42+21 {
		t.Fatalf("batch arena has %d elems, want 63", w.batch.Elems())
	}

	cfg.SmallTensorElems = 30 // only {21} qualifies: no batch
	w = NewWorker(0, model, cfg)
	if w.batch != nil {
		t.Fatal("single qualifying tensor should not batch")
	}
	if len(w.jobs) != len(w.params) {
		t.Fatal("unbatched job list should be the identity")
	}

	cfg.SmallTensorElems = 0
	cfg.StagedAggregate = true // reference configuration disables batching
	w = NewWorker(0, model, cfg)
	if w.batch != nil {
		t.Fatal("StagedAggregate should disable batching")
	}
}

// TestBatchedCheckpointRoundTrip: endpoint state capture must work
// unchanged with batching on (contexts are batch members), and a state
// captured from a batched endpoint must restore into an unbatched one
// and vice versa — statefulness is per tensor either way.
func TestBatchedCheckpointRoundTrip(t *testing.T) {
	batched := runPair(t, nil, ingestWhole)
	_ = batched

	cfg := testConfig(compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}, 1)
	mkWorker := func(small int, seed uint64) *Worker {
		c := cfg
		c.SmallTensorElems = small
		return NewWorker(0, testModel(seed), c)
	}
	bw := mkWorker(0, 1)
	uw := mkWorker(-1, 1)
	rng := tensor.NewRNG(5)
	x := tensor.New(5, 8)
	tensor.FillNormal(x, 1, rng)
	labels := []int{0, 1, 2, 0, 1}
	bw.Model.TrainStep(x, labels)
	bw.CompressGrads() // leave nonzero residual state in the arena

	if err := uw.RestoreState(bw.AppendState(nil)); err != nil {
		t.Fatalf("batched state into unbatched worker: %v", err)
	}
	bw2 := mkWorker(0, 1)
	if err := bw2.RestoreState(uw.AppendState(nil)); err != nil {
		t.Fatalf("unbatched state into batched worker: %v", err)
	}
	bw.Model.TrainStep(x, labels)
	bw2.Model.CopyParamsFrom(bw.Model)
	for i := range bw2.params {
		bw2.params[i].G.CopyFrom(bw.params[i].G)
	}
	want, _ := bw.CompressGrads()
	got, _ := bw2.CompressGrads()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("wire %d differs after state round trip through unbatched form", i)
		}
	}
}
