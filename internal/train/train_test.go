package train

import (
	"bytes"
	"path/filepath"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
)

func tinyConfig(design Design, steps int) Config {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 300, 100
	in := dcfg.C * dcfg.H * dcfg.W
	optCfg := opt.TunedSGDConfig(4, steps)
	return Config{
		Design:         design,
		Workers:        4,
		BatchPerWorker: 8,
		Steps:          steps,
		Data:           dcfg,
		BuildModel:     func() *nn.Model { return nn.NewMLP(in, []int{16}, dcfg.Classes, 1) },
		FlatInput:      true,
		Optimizer:      &optCfg,
		Seed:           1,
	}
}

func TestRunBaselineEndToEnd(t *testing.T) {
	res, err := Run(tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.3 {
		t.Errorf("baseline accuracy %v too low for a learnable task", res.FinalAccuracy)
	}
	if res.TimeAt(netsim.Gbps1) <= 0 {
		t.Error("virtual time not accounted")
	}
	if len(res.StepRecords) != 30 {
		t.Errorf("expected 30 step records, got %d", len(res.StepRecords))
	}
	// The float32 denominator is what this run measured: every wire is a
	// scheme byte plus 4 bytes an element, an owner-only tensor is pushed by
	// its owner alone (ps.Pushes) and pulled by everyone else (ps.Pulls).
	const steps, workers = 30, 4
	pushWires, pullWires, owned := 0, 0, int64(0)
	for _, p := range tinyConfig(Design{}, steps).BuildModel().Params() {
		for w := 0; w < workers; w++ {
			if ps.Pushes(w, p) {
				pushWires++
			}
			if ps.Pulls(w, p) {
				pullWires++
			}
		}
		if ps.OwnerOnly(p) {
			owned += int64(4 * p.W.Len())
		}
	}
	if pushWires == pullWires || owned == 0 {
		t.Fatal("the model has no owner-only tensor: the pins below would not see the push side")
	}
	if got, want := res.RawPushBytes, res.TotalPushBytes-int64(steps*pushWires); got != want {
		t.Errorf("RawPushBytes %d, the run pushed %d payload bytes", got, want)
	}
	if got, want := res.RawBytes, res.TotalPushBytes+res.TotalPullBytes-int64(steps*(pushWires+pullWires)); got != want {
		t.Errorf("RawBytes %d, the run moved %d payload bytes", got, want)
	}
	// Before ps.Pulls the baseline also pulled the owner-only tensors to the
	// owner: 11 994 240 bytes, less those four bytes an element a step now.
	if got, want := res.RawBytes, 11994240-steps*owned; got != want {
		t.Errorf("RawBytes %d, want %d = 11994240 - %d steps x %d owner-only bytes the owner is not sent", got, want, steps, owned)
	}
}

func TestRunThreeLCTrafficReduction(t *testing.T) {
	base, err := Run(tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 25))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Run(tinyConfig(Design{
		Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.0, ZeroRun: true},
	}, 25))
	if err != nil {
		t.Fatal(err)
	}
	if lc.TotalPushBytes >= base.TotalPushBytes/10 {
		t.Errorf("3LC push traffic %d not <10%% of baseline %d", lc.TotalPushBytes, base.TotalPushBytes)
	}
	// The ratios are over compressible tensors only: who pushes the exempt
	// ones cannot move them. These are the values from before ps.Pushes.
	if r := lc.CompressionRatio(); r != 33.03991852949777 {
		t.Errorf("3LC compression ratio %v moved", r)
	}
	if r := lc.PaperCompressionRatio(); r != 32.57126953202656 {
		t.Errorf("3LC compression ratio in the paper's spelling %v moved", r)
	}
	if b := lc.BitsPerChange(); b != 0.968525390625 {
		t.Errorf("bits per change %v moved", b)
	}
}

// TestPaperSpellingOnTrainingWires holds compress.PaperWireLen to its
// bound on real wires — worker 0's push wires of a training run,
// re-encoded from the e + g its gradient hook sees: the paper's capped
// zero-run spelling is never shorter than ours by more than the bare
// long-run tokens (runs of 14..27, two bytes here, one there), and over
// the run the accounting agrees with the per-wire sum.
func TestPaperSpellingOnTrainingWires(t *testing.T) {
	design := Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}
	cfg := tinyConfig(design, 20)
	cfg.BuildModel = func() *nn.Model {
		return nn.NewMLP(cfg.Data.C*cfg.Data.H*cfg.Data.W, []int{64, 64}, cfg.Data.Classes, 1)
	}
	wires, longer := 0, 0
	cfg.OnGradients = func(step int, params []*nn.Param) {
		for i, p := range params {
			if p.NoCompress || p.W.Len() < 256 {
				continue
			}
			// G is worker 0's push context's error buffer, holding e + g:
			// through a fresh context it encodes to worker 0's push wire.
			wire := compress.New(design.Scheme, p.W.Shape(), design.Opts).CompressInto(p.G, nil)
			paper, lone := compress.PaperWireLen(wire), bytes.Count(wire[6:], []byte{0xff, 0})
			if paper < len(wire)-lone {
				t.Fatalf("step %d tensor %d: paper spelling %d B, ours %d B with %d bare long-run tokens", step, i, paper, len(wire), lone)
			}
			wires++
			if paper > len(wire) {
				longer++
			}
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wires == 0 || longer == 0 {
		t.Fatalf("%d wires checked, %d of them longer in the paper's spelling: the run never met a long run", wires, longer)
	}
	if p, c := res.PaperCompressionRatio(), res.CompressionRatio(); p <= 0 || p > 1.07*c {
		t.Fatalf("compression ratio %v in the paper's spelling, %v in ours", p, c)
	}
}

func TestTimeAtConsistency(t *testing.T) {
	cfg := tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 10)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slower network, longer time.
	if slow, fast := res.TimeAt(netsim.Mbps10), res.TimeAt(netsim.Gbps1); slow <= fast {
		t.Errorf("TimeAt: %v s at 10 Mbps, %v s at 1 Gbps; want 10 Mbps slower", slow, fast)
	}
}

func TestRunRecordsEvals(t *testing.T) {
	cfg := tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 20)
	cfg.EvalEvery = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 2 {
		t.Fatalf("expected 2 evals, got %d", len(res.Evals))
	}
	if res.Evals[1].Step != 20 {
		t.Errorf("final eval at step %d", res.Evals[1].Step)
	}
}

func TestRunDeterminism(t *testing.T) {
	d := Design{Name: "3LC (s=1.50)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.5, ZeroRun: true}}
	r1, err := Run(tinyConfig(d, 15))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tinyConfig(d, 15))
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalAccuracy != r2.FinalAccuracy {
		t.Errorf("accuracy differs across identical runs: %v vs %v", r1.FinalAccuracy, r2.FinalAccuracy)
	}
	if r1.TotalPushBytes != r2.TotalPushBytes {
		t.Errorf("traffic differs across identical runs: %d vs %d", r1.TotalPushBytes, r2.TotalPushBytes)
	}
}

// TestRunValidation: Run refuses, before it builds anything, a config no
// tier can run — one that would otherwise panic in a worker (a negative
// batch), train on nothing (an empty batch's loss is NaN) or return having
// run no step.
func TestRunValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"no workers", func(c *Config) { c.Workers = 0 }},
		{"nil BuildModel", func(c *Config) { c.BuildModel = nil }},
		{"empty batch", func(c *Config) { c.BatchPerWorker = 0 }},
		{"negative steps", func(c *Config) { c.Steps = -1 }},
		{"negative batch", func(c *Config) { c.BatchPerWorker = -3 }},
		// A run that asked for checkpoints must write them.
		{"checkpoint every 0 steps", func(c *Config) { c.CheckpointPath, c.CheckpointEvery = "ck", 0 }},
		{"checkpoint every -1 steps", func(c *Config) { c.CheckpointPath, c.CheckpointEvery = "ck", -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(Design{Name: "x", Scheme: compress.SchemeNone}, 5)
			tc.edit(&cfg)
			if cfg.CheckpointPath != "" {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), cfg.CheckpointPath)
			}
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted the config")
			}
		})
	}
}

func TestLocalStepsHalvesTraffic(t *testing.T) {
	base, err := Run(tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 20))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Run(tinyConfig(Design{
		Name: "2 local steps", Scheme: compress.SchemeLocalSteps,
		Opts: compress.Options{Interval: 2},
	}, 20))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.TotalPushBytes) / float64(l2.TotalPushBytes)
	if ratio < 1.8 || ratio > 2.3 {
		t.Errorf("2-local-steps traffic ratio %v, want ~2", ratio)
	}
}

func TestSparsityIncreasesCompression(t *testing.T) {
	mk := func(s float64) *Result {
		r, err := Run(tinyConfig(Design{
			Name: "3LC", Scheme: compress.SchemeThreeLC,
			Opts: compress.Options{Sparsity: s, ZeroRun: true},
		}, 25))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r19 := mk(1.0), mk(1.9)
	if r19.CompressionRatio() <= r1.CompressionRatio() {
		t.Errorf("s=1.9 ratio %v not greater than s=1.0 ratio %v",
			r19.CompressionRatio(), r1.CompressionRatio())
	}
}

// TestEvaluateBatching holds Evaluate's chunked walk of a set (75 examples,
// not a multiple of nn.EvalRows) to one Model.Accuracy over the whole set,
// flat for an MLP and image-shaped for a MicroResNet, and an empty set to 0.
func TestEvaluateBatching(t *testing.T) {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 100, 75
	trainSet, testSet := data.Synthetic(dcfg)
	idx := make([]int, testSet.Len())
	for i := range idx {
		idx[i] = i
	}
	resnet := nn.DefaultMicroResNet()
	resnet.ImageSize = dcfg.H
	for _, c := range []struct {
		name string
		m    *nn.Model
		flat bool
	}{
		{"mlp", nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{8}, dcfg.Classes, 1), true},
		{"microresnet", nn.NewMicroResNet(resnet), false},
	} {
		batch := trainSet.Batch
		if c.flat {
			batch = trainSet.FlatBatch
		}
		c.m.TrainStep(batch([]int{0, 1, 2, 3}, nil, nil)) // batch norm's running statistics move
		x, labels := testSet.Batch(idx, nil, nil)
		if c.flat {
			x, labels = testSet.FlatBatch(idx, nil, nil)
		}
		want := c.m.Accuracy(x, labels)
		if got := Evaluate(c.m, testSet, c.flat); got != want || got < 0 || got > 1 {
			t.Errorf("%s: Evaluate = %v, Accuracy over the whole set = %v", c.name, got, want)
		}
	}
	empty := &data.Dataset{C: dcfg.C, H: dcfg.H, W: dcfg.W}
	if got := Evaluate(nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{8}, dcfg.Classes, 1), empty, true); got != 0 {
		t.Errorf("Evaluate on an empty set = %v, want 0", got)
	}
}

func TestResNetWorkloadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN workload in -short mode")
	}
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 100, 40
	dcfg.H, dcfg.W = 8, 8
	optCfg := opt.TunedSGDConfig(2, 6)
	cfg := Config{
		Design:         Design{Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1, ZeroRun: true}},
		Workers:        2,
		BatchPerWorker: 8,
		Steps:          6,
		Data:           dcfg,
		BuildModel: func() *nn.Model {
			mc := nn.DefaultMicroResNet()
			mc.ImageSize = 8
			mc.StageChannels = []int{4, 8}
			return nn.NewMicroResNet(mc)
		},
		FlatInput: false,
		Augment:   true,
		Optimizer: &optCfg,
		Seed:      1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParam == 0 || res.TotalPushBytes == 0 {
		t.Error("CNN run produced no traffic")
	}
}
