package train

import (
	"math"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// stagedDropoutReference replicates Run's elastic-dropout semantics with
// the plain staged ps driver — serial whole-set AddPush in worker order,
// no overlapped aggregation, no pipelining — and returns the final global
// model's parameter bits. Run's pipelined path must match it exactly: the
// equivalence pins that dropout and rejoin compose with the overlapped
// pipeline without changing a single bit.
func stagedDropoutReference(t *testing.T, cfg Config) []uint32 {
	t.Helper()
	trainSet, _ := data.Synthetic(cfg.Data)
	global := cfg.BuildModel()
	optCfg := *cfg.Optimizer
	optCfg.Workers = cfg.Workers
	optCfg.TotalSteps = cfg.Steps
	psCfg := ps.Config{
		Scheme:           cfg.Design.Scheme,
		Opts:             cfg.Design.Opts,
		Workers:          cfg.Workers,
		MinCompressElems: cfg.MinCompressElems,
		Parallelism:      1,
		Optimizer:        optCfg,
	}
	server := ps.NewJob(global, psCfg)
	workers := make([]*ps.Worker, cfg.Workers)
	rngs := make([]*tensor.RNG, cfg.Workers)
	shards := make([][]int, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		m := cfg.BuildModel()
		m.CopyParamsFrom(global)
		workers[w] = ps.NewWorker(w, m, psCfg)
		rngs[w] = tensor.NewRNG(cfg.Seed + 1000*uint64(w) + 7)
		for i := w; i < trainSet.Len(); i += cfg.Workers {
			shards[w] = append(shards[w], i)
		}
	}
	down := func(w, step int) bool {
		for _, d := range cfg.Dropouts {
			if d.Worker == w && step >= d.From && step < d.To {
				return true
			}
		}
		return false
	}
	missed := make([][][][]byte, cfg.Workers)
	for step := 0; step < cfg.Steps; step++ {
		server.BeginStep()
		wires := make([][][]byte, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			if down(w, step) {
				continue
			}
			for _, ws := range missed[w] {
				if _, err := workers[w].ApplyPull(ws); err != nil {
					t.Fatal(err)
				}
			}
			missed[w] = nil
			idx := make([]int, cfg.BatchPerWorker)
			for i := range idx {
				idx[i] = shards[w][rngs[w].Intn(len(shards[w]))]
			}
			x, labels := trainSet.FlatBatch(idx, nil, nil)
			workers[w].Model.TrainStep(x, labels)
			wires[w], _ = workers[w].CompressGrads()
		}
		for w := 0; w < cfg.Workers; w++ {
			if wires[w] == nil {
				continue
			}
			if _, err := server.AddPush(w, wires[w]); err != nil {
				t.Fatal(err)
			}
		}
		pull, _, err := server.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < cfg.Workers; w++ {
			if down(w, step) {
				continue
			}
			if _, err := workers[w].ApplyPull(pull); err != nil {
				t.Fatal(err)
			}
		}
		var cp [][]byte
		for w := 0; w < cfg.Workers; w++ {
			if !down(w, step) {
				continue
			}
			if cp == nil {
				cp = make([][]byte, len(pull))
				for i, pw := range pull {
					if pw != nil {
						cp[i] = append([]byte(nil), pw...)
					}
				}
			}
			missed[w] = append(missed[w], cp)
		}
	}
	return paramsBits(global)
}

// TestDropoutRejoinMatchesStagedReference: a worker dropping out and
// rejoining under Run's overlapped pipeline yields bit-identical global
// model state to the staged serial reference driver, for an
// error-accumulating codec (3LC), a stateless one (int8), and raw floats.
func TestDropoutRejoinMatchesStagedReference(t *testing.T) {
	designs := []Design{
		{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}},
		{Name: "8-bit int", Scheme: compress.SchemeInt8},
		{Name: "32-bit float", Scheme: compress.SchemeNone},
	}
	for _, d := range designs {
		t.Run(d.Name, func(t *testing.T) {
			cfg := tinyConfig(d, 8)
			cfg.MinCompressElems = 1
			cfg.Parallelism = 1
			cfg.Dropouts = []Dropout{
				{Worker: 1, From: 2, To: 5}, // drops and rejoins mid-run
				{Worker: 3, From: 6, To: 8}, // down through the end
			}
			run := cfg
			runModels := captureModels(&run)
			res, err := Run(run)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(res.FinalLoss) {
				t.Fatal("dropout run produced NaN loss")
			}
			got := paramsBits((*runModels)[0]) // the global model
			want := stagedDropoutReference(t, cfg)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dropout run diverges from staged reference at element %d", i)
				}
			}
		})
	}
}

// TestDropoutResidualFoldsOnRejoin: with an error-accumulating codec, the
// residual a worker accumulated before dropping out is still present in
// its push contexts at rejoin time (frozen while away) — the property the
// paper's dropout-tolerance argument relies on.
func TestDropoutResidualFoldsOnRejoin(t *testing.T) {
	d := Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}
	cfg := tinyConfig(d, 6)
	cfg.MinCompressElems = 1
	cfg.Dropouts = []Dropout{{Worker: 2, From: 2, To: 4}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDropoutValidation(t *testing.T) {
	d := Design{Name: "32-bit float", Scheme: compress.SchemeNone}
	cfg := tinyConfig(d, 4)
	cfg.Dropouts = []Dropout{{Worker: 0, From: 1, To: 2}}
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for chief dropout")
	}
	cfg = tinyConfig(d, 4)
	cfg.Dropouts = []Dropout{{Worker: 1, From: 3, To: 3}}
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for empty dropout interval")
	}
	cfg = tinyConfig(d, 4)
	cfg.Dropouts = []Dropout{{Worker: 1, From: 1, To: 2}}
	cfg.Staleness = 1
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for dropouts combined with staleness")
	}
}
