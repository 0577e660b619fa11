package ps

import (
	"fmt"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// spelledRaw returns wires with every packed wire respelled as the raw
// float32 wire of the tensor it decodes to — what the commit before the
// packed wire put in the same slot — and the number it respelled.
func spelledRaw(t *testing.T, params []*nn.Param, wires [][]byte) ([][]byte, int) {
	t.Helper()
	out, n := make([][]byte, len(wires)), 0
	for i, wire := range wires {
		out[i] = wire
		if len(wire) == 0 || compress.Scheme(wire[0]) != compress.SchemePacked32 {
			continue
		}
		v := tensor.New(params[i].W.Shape()...)
		if err := compress.DecompressInto(wire, v); err != nil {
			t.Fatal(err)
		}
		out[i], n = rawWire(v), n+1
	}
	return out, n
}

func weightsOf(params []*nn.Param) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32(nil), p.W.Data()...)
	}
	return out
}

// TestPackedWiresEqualTheirRawSpelling is the equivalence the packed wire
// needs no knob for: the scheme byte makes a wire self-describing, so the
// raw spelling of an exempt tensor stays an accepted input, and a Job fed
// the workers' wires as produced and a second fed the same wires with every
// packed one respelled raw hold bit-identical weights and emit the same
// pull, byte for byte, every step — but in the owner-only slots, where each
// relays the spelling it was pushed — as does a replica that applies the pull
// respelled raw beside a worker that applies it as produced. Every design,
// at 1, 2 and the paper's 10 workers.
func TestPackedWiresEqualTheirRawSpelling(t *testing.T) {
	for _, sc := range designs {
		for _, workers := range []int{1, 2, 10} {
			t.Run(fmt.Sprintf("%s/%d workers", sc.name, workers), func(t *testing.T) {
				// Hidden width 24: batch-norm vectors and a bias long enough
				// to be packed (the suite's 6-wide testModel's are not).
				model := func() *nn.Model { return nn.NewMLP(8, []int{24}, 3, 1) }
				cfg := testConfig(sc.s, sc.o, workers)
				asProduced, respelled := NewJob(model(), cfg), NewJob(model(), cfg)
				replica := NewWorker(0, model(), cfg)
				var ws []*Worker
				for id := 0; id < workers; id++ {
					ws = append(ws, NewWorker(id, model(), cfg))
				}
				rng := tensor.NewRNG(uint64(workers) + 3)
				packed := 0
				for step := 0; step < 6; step++ {
					asProduced.BeginStep()
					respelled.BeginStep()
					for _, w := range ws {
						x := tensor.New(5, 8)
						tensor.FillNormal(x, 1, rng)
						w.Model.TrainStep(x, []int{0, 1, 2, 0, 1})
						wires, _ := w.CompressGrads()
						raw, n := spelledRaw(t, w.params, wires)
						packed += n
						if _, err := asProduced.AddPush(w.ID, wires); err != nil {
							t.Fatal(err)
						}
						if _, err := respelled.AddPush(w.ID, raw); err != nil {
							t.Fatalf("step %d: the raw spelling of worker %d's push: %v", step, w.ID, err)
						}
					}
					pull, _, err := asProduced.FinishStep()
					if err != nil {
						t.Fatal(err)
					}
					pull2, _, err := respelled.FinishStep()
					if err != nil {
						t.Fatal(err)
					}
					raw, n := spelledRaw(t, asProduced.params, pull)
					packed += n
					for i, p := range asProduced.params {
						want := pull[i]
						if OwnerOnly(p) {
							want = raw[i]
						}
						if string(want) != string(pull2[i]) {
							t.Fatalf("step %d: pull tensor %d differs between the two spellings of the push", step, i)
						}
					}
					assertSameState(t, weightsOf(respelled.params), weightsOf(asProduced.params), "as-produced")
					if _, err := replica.ApplyPull(raw); err != nil {
						t.Fatalf("step %d: the raw spelling of the pull: %v", step, err)
					}
					for _, w := range ws {
						if _, err := w.ApplyPull(pull); err != nil {
							t.Fatal(err)
						}
					}
					assertSameState(t, weightsOf(replica.params), weightsOf(ws[0].params), "as-produced")
				}
				if (packed > 0) != (sc.s != compress.SchemeNone) {
					t.Fatalf("%d packed wires seen under design %v", packed, sc.s)
				}
			})
		}
	}
}
