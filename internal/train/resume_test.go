package train

import (
	"encoding/hex"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/ps"
)

// allDesigns enumerates every implemented codec — the full Table-2 set.
func allDesigns() []Design {
	return []Design{
		{Name: "32-bit float", Scheme: compress.SchemeNone},
		{Name: "8-bit int", Scheme: compress.SchemeInt8},
		{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}},
		{Name: "Stoch 3-value + QE", Scheme: compress.SchemeStoch3QE, Opts: compress.Options{Seed: 11}},
		{Name: "MQE 1-bit int", Scheme: compress.SchemeMQE1Bit},
		{Name: "25% sparsification", Scheme: compress.SchemeTopK, Opts: compress.Options{Fraction: 0.25, Seed: 5}},
		{Name: "2 local steps", Scheme: compress.SchemeLocalSteps, Opts: compress.Options{Interval: 2}},
	}
}

// captureModels wires cfg.BuildModel so every model the run constructs is
// kept, in order: the global model, then worker 0's replica, worker 1's, ...
func captureModels(cfg *Config) *[]*nn.Model {
	var models []*nn.Model
	orig := cfg.BuildModel
	cfg.BuildModel = func() *nn.Model {
		m := orig()
		models = append(models, m)
		return m
	}
	return &models
}

func paramsBits(m *nn.Model) []uint32 {
	var out []uint32
	for _, p := range m.Params() {
		for _, v := range p.W.Data() {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

// crashAt is an in-process tier whose FinishStep fails at step `at`, the
// way a crashed process leaves a run: the steps before it done, and
// checkpointed as far as the last checkpoint boundary.
type crashAt struct {
	*ps.Job
	at, step int
	err      error
}

func (c *crashAt) FinishStep() ([][]byte, time.Duration, error) {
	if c.step == c.at {
		return nil, 0, c.err
	}
	c.step++
	return c.Job.FinishStep()
}

// runResumeCase checks the tentpole guarantee for one configuration: a run
// checkpointed every 3 steps and "killed" in step 7 (past the step-6
// checkpoint), then resumed from the latest checkpoint, must reproduce the
// uninterrupted run's per-step loss trajectory and final model state
// bit-for-bit — the global model and every worker's replica, the owner's
// included, whose own step of the owner-only tensors resumes from the
// velocity and step count restored from its worker section.
func runResumeCase(t *testing.T, cfg Config) {
	t.Helper()
	const steps = 8
	cfg.Steps = steps
	// A hidden layer of 32 puts both weight matrices over MinCompressElems,
	// so the codec's state crosses the crash in each of them.
	in, classes := cfg.Data.C*cfg.Data.H*cfg.Data.W, cfg.Data.Classes
	cfg.BuildModel = func() *nn.Model { return nn.NewMLP(in, []int{32}, classes, 1) }

	// Reference: uninterrupted run.
	ref := cfg
	refModels := captureModels(&ref)
	refRes, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint after steps 3 and 6, crash in step 7.
	path := filepath.Join(t.TempDir(), "train.ckpt")
	boom := errors.New("simulated crash")
	crashed := cfg
	crashed.CheckpointPath = path
	crashed.CheckpointEvery = 3
	crashed.Tier = func(global *nn.Model, scfg ps.Config) (ps.Tier, error) {
		return &crashAt{Job: ps.NewJob(global, scfg), at: 7, err: boom}, nil
	}
	if _, err := Run(crashed); !errors.Is(err, boom) {
		t.Fatalf("crash run: got err %v, want simulated crash", err)
	}

	// Resume from the latest checkpoint (step 6) and finish the run.
	resumed := cfg
	resumed.ResumeFrom = path
	resModels := captureModels(&resumed)
	resRes, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := len(resRes.StepRecords), steps-6; got != want {
		t.Fatalf("resumed run recorded %d steps, want %d", got, want)
	}
	for i, sr := range resRes.StepRecords {
		want := refRes.StepRecords[6+i]
		if sr.Step != want.Step {
			t.Fatalf("resumed record %d is step %d, want %d", i, sr.Step, want.Step)
		}
		if math.Float64bits(sr.Loss) != math.Float64bits(want.Loss) {
			t.Errorf("step %d loss %v != uninterrupted %v (not bit-identical)", sr.Step, sr.Loss, want.Loss)
		}
		if sr.PushBytes != want.PushBytes || sr.PullBytes != want.PullBytes {
			t.Errorf("step %d traffic (%d,%d) != uninterrupted (%d,%d)",
				sr.Step, sr.PushBytes, sr.PullBytes, want.PushBytes, want.PullBytes)
		}
	}
	// A resumed Result totals only the steps it ran, so its ratio is the
	// uninterrupted run's over that same segment.
	seg := Result{CompressibleElems: refRes.CompressibleElems, Steps: steps - 6}
	for _, sr := range refRes.StepRecords[6:] {
		seg.CompPushBytes += sr.CompPushBytes
		seg.CompPullBytes += sr.CompPullBytes
	}
	if want := seg.CompressionRatio(); resRes.CompressionRatio() != want {
		t.Errorf("resumed compression ratio %v != %v over the uninterrupted run's steps 6..%d", resRes.CompressionRatio(), want, steps-1)
	}
	if math.Float64bits(resRes.FinalLoss) != math.Float64bits(refRes.FinalLoss) {
		t.Errorf("final loss %v != uninterrupted %v", resRes.FinalLoss, refRes.FinalLoss)
	}
	if resRes.FinalAccuracy != refRes.FinalAccuracy {
		t.Errorf("final accuracy %v != uninterrupted %v", resRes.FinalAccuracy, refRes.FinalAccuracy)
	}
	for k, ref := range *refModels {
		a, b := paramsBits(ref), paramsBits((*resModels)[k])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("model %d (0: global, k: worker k-1's replica) diverges at element %d after resume", k, i)
			}
		}
	}
}

func TestResumeBitIdenticalAllCodecs(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.Name, func(t *testing.T) {
			runResumeCase(t, tinyConfig(d, 8))
		})
	}
}

// TestResumeAtFinalStep: a run resumed from the checkpoint its last step
// wrote has no step left to run. It records none, takes 0 s of virtual time
// and ends on the uninterrupted run's accuracy.
func TestResumeAtFinalStep(t *testing.T) {
	cfg := tinyConfig(Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}, 4)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	full := cfg
	full.CheckpointPath, full.CheckpointEvery = path, 4
	ref, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ResumeFrom = path
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || len(res.StepRecords) != 0 {
		t.Errorf("resumed at the final step: ran %d steps, recorded %d; want none", res.Steps, len(res.StepRecords))
	}
	if res.FinalAccuracy != ref.FinalAccuracy {
		t.Errorf("final accuracy %v != uninterrupted %v", res.FinalAccuracy, ref.FinalAccuracy)
	}
	if got := res.TimeAt(netsim.Mbps10); got != 0 {
		t.Errorf("TimeAt of a run with no step = %v s, want 0", got)
	}
}

// TestResumeRefusesRetiredStateVersion: a checkpoint whose meta section is
// the version-1 layout is refused by name before anything is restored, even
// when every field it shares with version 3 matches the run. So is one
// whose meta is version 3's layout stamped version 2: its server section
// held the batch-norm tensors' velocity, which worker 0 now keeps.
func TestResumeRefusesRetiredStateVersion(t *testing.T) {
	cfg := tinyConfig(Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}, 4)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg.CheckpointPath, cfg.CheckpointEvery = path, 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version 1 had a u32 after steps and one after seed, and a float64 and
	// a u32 count of intervals at the end: all zero in a plain BSP run.
	opts := cfg.Design.Opts
	meta := tle.AppendUint32(nil, 1)
	meta = tle.AppendUint64(meta, uint64(cfg.Steps)) // captured step
	meta = tle.AppendUint32(meta, uint32(cfg.Workers))
	meta = tle.AppendUint32(meta, 1) // shards
	meta = append(meta, byte(cfg.Design.Scheme))
	meta = tle.AppendUint32(meta, uint32(cfg.Steps))
	meta = tle.AppendUint32(meta, 0)
	meta = tle.AppendUint64(meta, cfg.Seed)
	meta = tle.AppendUint32(meta, 0)
	meta = tle.AppendUint32(meta, uint32(cfg.BatchPerWorker))
	meta = tle.AppendUint64(meta, math.Float64bits(opts.Sparsity))
	meta = tle.AppendUint64(meta, math.Float64bits(opts.Fraction))
	meta = tle.AppendUint32(meta, uint32(opts.Interval))
	meta = tle.AppendUint32(meta, 0)
	meta = append(meta, 1) // zero-run
	meta = tle.AppendUint64(meta, opts.Seed)
	meta = tle.AppendUint64(meta, 0)
	meta = tle.AppendUint32(meta, 0)
	st.Add("meta", meta)
	if err := checkpoint.SaveStateFile(path, st); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath, cfg.CheckpointEvery, cfg.ResumeFrom = "", 0, path
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("resume from a version-1 checkpoint: got %v, want a refusal naming version 1", err)
	}

	meta = cfg.stateInfo(2).appendMeta(nil)
	tle.PutUint32(meta, 2)
	st.Add("meta", meta)
	if err := checkpoint.SaveStateFile(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "version 2 is retired") {
		t.Fatalf("resume from a version-2 checkpoint: got %v, want a refusal naming version 2", err)
	}
}

// TestResumeRefusesDeletedShardedTier: the meta section's shard
// slot (meta[16:20]) is always 1. A checkpoint with more shards was written
// by the deleted in-process sharded tier, whose server section is per-shard
// framing; it is refused by name before anything is restored.
func TestResumeRefusesDeletedShardedTier(t *testing.T) {
	cfg := tinyConfig(Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}, 4)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg.CheckpointPath, cfg.CheckpointEvery = path, 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := st.Section("meta")
	if !ok {
		t.Fatal("checkpoint has no meta section")
	}
	tle.PutUint32(meta[16:], 2)
	if err := checkpoint.SaveStateFile(path, st); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath, cfg.CheckpointEvery, cfg.ResumeFrom = "", 0, path
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "deleted in-process sharded tier") {
		t.Fatalf("resume from a 2-shard checkpoint: got %v, want a refusal naming the deleted in-process sharded tier", err)
	}
}

// TestStateMetaLayoutPinned: the version-3 meta section keeps version 2's
// layout, with the retired round-robin partition count's slot (meta[57:61])
// reserved. A fingerprint encodes to the bytes existing checkpoints hold,
// reads back unchanged, and a nonzero reserved slot is ignored.
func TestStateMetaLayoutPinned(t *testing.T) {
	info := StateInfo{Step: 6, Workers: 3, Scheme: compress.SchemeThreeLC, Steps: 12, Seed: 42, BatchPerWorker: 8,
		Opts: compress.Options{Sparsity: 1.75, Fraction: 0.25, Interval: 2, ZeroRun: true, Seed: 9}}
	const want = "0300000006000000000000000300000001000000020c0000002a000000000000000800000000000000" +
		"0000fc3f000000000000d03f0200000000000000010900000000000000"
	meta := info.appendMeta(nil)
	if got := hex.EncodeToString(meta); got != want || len(meta) != metaLen {
		t.Fatalf("meta section %s (%d bytes), want %s (%d bytes)", got, len(meta), want, metaLen)
	}
	for _, reserved := range []uint32{0, 4} {
		tle.PutUint32(meta[57:], reserved)
		st := checkpoint.NewState()
		st.Add("meta", meta)
		got, err := ReadStateInfo(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, info) {
			t.Fatalf("reserved slot %d: read %+v, want %+v", reserved, got, info)
		}
	}
}

func TestResumeConfigMismatch(t *testing.T) {
	d := Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}
	cfg := tinyConfig(d, 8)
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 4
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	wrong := tinyConfig(d, 8)
	wrong.Seed = 999 // fingerprint mismatch
	wrong.ResumeFrom = path
	if _, err := Run(wrong); err == nil {
		t.Fatal("expected resume with mismatched seed to fail")
	}
	// Codec options are fingerprinted too: the scheme byte alone would
	// match, but a different sparsity multiplier changes every wire.
	wrong = tinyConfig(d, 8)
	wrong.Design.Opts.Sparsity = 1.25
	wrong.ResumeFrom = path
	if _, err := Run(wrong); err == nil {
		t.Fatal("expected resume with mismatched sparsity to fail")
	}
}
