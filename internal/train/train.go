// Package train is the one BSP step driver: Run wires the data pipeline
// and the workers of package ps to an aggregation tier — any ps.Tier, in
// this process or dialed over sockets — and produces the traffic, time,
// loss, and accuracy records the paper's tables and figures are built
// from. Every step, every worker computes, pushes and pulls; checkpoint /
// resume lives here once; cmd/3lc-net, the experiments and the examples
// are configurations of it.
//
// A Result carries two clocks. TimeAt is VIRTUAL: package netsim's model
// applied to the exact wire bytes each step moved, at any bandwidth.
// WallSec is MEASURED: the wall clock of the step loop, which over a
// dialed tier includes the real sockets.
package train

import (
	"time"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// MinCompressElems is the size under which a tensor skips the codec and
// travels as lossless float32 (§5.1: compacting an already small tensor is
// not worth the computation).
const MinCompressElems = 256

// Design names one traffic-reduction configuration from §5.1.
type Design struct {
	// Name is the paper's label, e.g. "3LC (s=1.75)".
	Name string
	// Scheme and Opts configure package compress.
	Scheme compress.Scheme
	Opts   compress.Options
}

// Config describes one training run.
type Config struct {
	Design  Design
	Workers int
	// BatchPerWorker is the per-worker minibatch size (paper: 32).
	BatchPerWorker int
	// Steps is the number of global training steps.
	Steps int
	// Data configures the synthetic dataset.
	Data data.Config
	// BuildModel constructs the model architecture; it is called once per
	// node with the same seed so all replicas start identical.
	BuildModel func() *nn.Model
	// FlatInput feeds [N, C*H*W] batches (MLP models) instead of NCHW.
	FlatInput bool
	// Augment applies the paper's crop+flip augmentation to training batches.
	Augment bool
	// Optimizer overrides the server-side SGD configuration; nil uses
	// opt.DefaultSGDConfig(Workers, Steps), the paper's hyperparameters.
	Optimizer *opt.SGDConfig
	// EvalEvery evaluates test accuracy every this many steps (0: only at end).
	EvalEvery int
	// OnGradients, if non-nil, observes worker 0's gradient tensors each
	// step (after the backward pass, before compression). Used by the
	// gradient-statistics analysis; must not mutate the tensors. A
	// 3LC-compressed tensor's G is its push context's error buffer, so
	// there it holds e + g — the residual plus this step's gradient, the
	// quantizer's input; every other G holds the raw gradient.
	OnGradients func(step int, params []*nn.Param)

	// CheckpointPath + CheckpointEvery enable periodic full-state
	// checkpointing: after every CheckpointEvery-th step the run snapshots
	// its complete training state — every model replica, optimizer
	// momentum, all 3LC/codec error-accumulation buffers (worker push and
	// server pull contexts), RNG stream positions, and the step counter —
	// and writes it to CheckpointPath asynchronously (the serialization
	// captures copies at the step boundary; the file write overlaps the
	// next steps' compute, so steady-state step time is unaffected). The
	// write is atomic with the prior snapshot kept at CheckpointPath.bak
	// (checkpoint.SaveStateFile).
	CheckpointPath  string
	CheckpointEvery int
	// ResumeFrom restores a full-state checkpoint written by an identical
	// configuration and continues the run from the captured step. The
	// resumed trajectory — per-step losses, wire bytes, final model state —
	// is bit-identical to the uninterrupted run's for every codec; the
	// returned Result covers only the resumed segment (steps from the
	// checkpoint to Steps).
	ResumeFrom string

	// Tier, when non-nil, builds the aggregation tier the run drives, in
	// place of the single in-process ps.NewJob Run builds itself. It is
	// called once, with the run's global model and the server half of the
	// run's ps.Config, and may return any ps.Tier — for instance a
	// transport.DialedTier over shard servers the hook started
	// (shard.SubServers behind transport.ShardServer), which is how
	// cmd/3lc-net runs this driver sharded and over real sockets. Run asks
	// three optional things of what it gets back:
	// Close() error — the tier is closed when Run returns; NumShards() int —
	// how many server NICs the model is spread over (Result.Shards,
	// netsim.Params.Servers; 1 when absent); and Seats() int — the tier is
	// dialed: one seat per worker, fed with no worker-order gate, whose pull
	// is the one seat 0 — the owner — was sent, which the owner completes
	// for the other workers with its own pushes (ps.Worker.Complete). It holds
	// no state, so CheckpointPath and ResumeFrom are refused, and
	// FinalAccuracy / Evals read the global model the hook was handed, so its servers
	// must aggregate into that.
	Tier func(global *nn.Model, cfg ps.Config) (ps.Tier, error)

	// Seed controls data sampling; model init comes from BuildModel.
	Seed uint64
}

// StepRecord is the per-step series entry.
type StepRecord struct {
	Step int
	// Loss is the mean training loss across workers at this step.
	Loss float64
	// PushBytes / PullBytes are total wire bytes across all workers.
	PushBytes, PullBytes int
	// CompPushBytes / CompPullBytes count only the compressible tensors
	// (excludes the batch-norm/small-tensor raw exemption), averaged per
	// worker; used for bits-per-state-change series (Figure 9).
	CompPushBytes, CompPullBytes float64
	// CodecSec is the measured codec critical-path time of the step.
	CodecSec float64
}

// EvalRecord is a test-accuracy measurement during training.
type EvalRecord struct {
	Step     int
	Accuracy float64
}

// Result summarizes a finished run.
type Result struct {
	Design  Design
	Workers int
	// Shards is the parameter-server shard count the run used (1 = one
	// server, in process or dialed).
	Shards int
	// Steps is how many steps this run executed and every total below
	// covers: cfg.Steps, less the steps a ResumeFrom checkpoint had done.
	Steps    int
	NumParam int
	// CompressibleElems is the element count of tensors subject to
	// compression (per push or pull).
	CompressibleElems int

	FinalAccuracy float64
	FinalLoss     float64

	// WallSec is the measured wall clock of the step loop — over a dialed
	// tier, real socket time.
	WallSec float64

	TotalPushBytes int64
	TotalPullBytes int64
	// RawBytes is what the 32-bit float baseline would have moved in total —
	// every element from every worker that pushes it (ps.Pushes: an
	// owner-only tensor once) to every worker that is sent it (ps.Pulls: an
	// owner-only tensor to all but its owner) — and RawPushBytes its push
	// half: the payload of a SchemeNone run's wires, less their scheme byte.
	RawBytes     int64
	RawPushBytes int64
	// CompPushBytes / CompPullBytes total the compressible-tensor wire
	// bytes (per-worker average), for compression-ratio accounting.
	CompPushBytes float64
	CompPullBytes float64
	// PaperCompBytes is CompPushBytes + CompPullBytes with every 3LC wire
	// counted at the length §3.3's capped zero-run code would have given
	// it (compress.PaperWireLen).
	PaperCompBytes float64

	// Net is the virtual cluster TimeAt prices the run on: netsim's
	// defaults with the run's workers and shards, calibrated to the model.
	Net netsim.Params

	StepRecords []StepRecord
	Evals       []EvalRecord
}

// TimeAt is the run's total virtual training time at a link bandwidth,
// computed from the recorded per-step traffic and codec time — the
// extrapolation the paper's measurement methodology performs (§5.2).
// A run that recorded no step — one resumed at its final step — took 0 s.
func (r *Result) TimeAt(bandwidthBps float64) float64 {
	net := r.Net
	net.BandwidthBps = bandwidthBps
	var total float64
	push := make([]int, r.Workers)
	pull := make([]int, r.Workers)
	for _, sr := range r.StepRecords {
		perPush := sr.PushBytes / r.Workers
		perPull := sr.PullBytes / r.Workers
		for w := 0; w < r.Workers; w++ {
			push[w], pull[w] = perPush, perPull
		}
		total += net.StepTime(push, pull, sr.CodecSec)
	}
	return total
}

// CompressionRatio returns raw/compressed over the compressible tensors,
// averaged over pushes and pulls (Table 2's "compression ratio").
func (r *Result) CompressionRatio() float64 {
	return r.ratioOver(r.CompPushBytes + r.CompPullBytes)
}

// PaperCompressionRatio is CompressionRatio in the paper's zero-run
// spelling: the figure to compare with Table 2 of the paper.
func (r *Result) PaperCompressionRatio() float64 {
	return r.ratioOver(r.PaperCompBytes)
}

func (r *Result) ratioOver(comp float64) float64 {
	raw := float64(r.CompressibleElems) * 4 * float64(r.Steps) * 2 // push + pull per step
	if comp == 0 {
		return 0
	}
	return raw / comp
}

// BitsPerChange returns the average transmitted bits per state-change
// value over the compressible tensors (Table 2's "bits per state change").
func (r *Result) BitsPerChange() float64 {
	ratio := r.CompressionRatio()
	if ratio == 0 {
		return 0
	}
	return 32 / ratio
}

// Run executes the configured training run: set-up (newRun), then for each
// step the compute-and-push phase, the pull phase, the record and the
// checkpoint, then the final evaluation (finish).
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	start := time.Now()
	for step := r.startStep; step < r.cfg.Steps; step++ {
		pull, serverDur, err := r.computePush(step)
		if err == nil {
			err = r.applyPull(pull)
		}
		if err != nil {
			return nil, err
		}
		r.record(step, pull, serverDur)
		if err := r.checkpoint(step); err != nil {
			return nil, err
		}
	}
	r.res.WallSec = time.Since(start).Seconds()
	return r.finish()
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Evaluate is model's top-1 accuracy over ds, 0 for an empty set: it
// walks ds nn.EvalRows examples at a time, each chunk assembled into one
// reused buffer ([N, C*H*W] when flat) and scored by model.Correct, so it
// counts exactly what Accuracy over the whole set would.
func Evaluate(model *nn.Model, ds *data.Dataset, flat bool) float64 {
	if ds.Len() == 0 {
		return 0
	}
	var x tensor.Tensor
	var labels []int
	idx := make([]int, 0, nn.EvalRows)
	correct := 0
	for start := 0; start < ds.Len(); start += nn.EvalRows {
		idx = idx[:0]
		for i := start; i < start+nn.EvalRows && i < ds.Len(); i++ {
			idx = append(idx, i)
		}
		labels = ds.BatchInto(&x, labels, idx, flat)
		correct += model.Correct(&x, labels)
	}
	return float64(correct) / float64(ds.Len())
}
