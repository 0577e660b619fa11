// Package train drives distributed training runs: it wires the data
// pipeline, the worker/server runtime of package ps, and the virtual
// network of package netsim into a single measured experiment, producing
// the traffic, time, loss, and accuracy records the paper's tables and
// figures are built from.
package train

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/region"
	"threelc/internal/shard"
	"threelc/internal/tenant"
	"threelc/internal/tensor"
)

// stepServer is the driver-facing surface shared by the single parameter
// server (ps.Job) and a job's handle on a shard tier (shard.JobHandle),
// dedicated (shard.NewCluster) or shared and multi-tenant. The
// driver ingests pushes through per-worker PushSessions, feeding tensors
// as they compress — which is what lets the aggregation overlap the
// compute/compress phase.
type stepServer interface {
	BeginStep()
	BeginPush(workerID int) ps.PushSession
	FinishStep() ([][]byte, time.Duration, error)
	// AppendState / RestoreState capture the server tier's mutable
	// training state (optimizer + pull contexts) for full-state
	// checkpoints; both are step-boundary operations.
	AppendState(dst []byte) []byte
	RestoreState(src []byte) error
}

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
	// Shards is the parameter-server shard count. Values above 1 route
	// every push/pull through the sharded tier of package shard: tensors
	// are partitioned across Shards sub-servers (size-balanced, see
	// shard.Assign) and workers push/pull against all shards through the
	// async pipeline. The resulting model state is byte-identical to the
	// single-server path for every codec; what changes is the codec
	// critical path (shards decode concurrently) and the virtual network
	// model (aggregate traffic divides across Shards server NICs,
	// netsim.Params.Servers). Zero or 1 keeps the single in-process server.
	Shards int
	// Regions enables hierarchical two-level aggregation (package
	// region): workers are grouped into this many regions, each region's
	// aggregator ingests local pushes over the fast network, and only one
	// stream per region crosses the simulated slow inter-region link to
	// the global tier (Net.WANBandwidthBps / Net.WANLatencySec; defaults
	// to 100 Mbps at 20 ms when unset). Zero or 1 keeps the flat
	// topology. The default exact mode forwards worker wires verbatim, so
	// model state is bit-identical to the flat run for every codec;
	// RegionRecompress trades that for fewer WAN streams. Requires the
	// single in-process server (no Shards/Service) and no elastic
	// features (Dropouts, BackupWorkers).
	Regions int
	// RegionRecompress switches the regional aggregators to fused
	// re-encode: local pushes are decode-accumulated into one per-region
	// gradient sum and a region-owned error-accumulating context
	// re-encodes a single residual stream per tensor for the WAN leg.
	RegionRecompress bool
	// RegionEntropy applies the streaming entropy second stage (Huffman
	// or LZ) to the inter-region streams — the bundled worker wires in
	// exact mode, the re-encoded wires and pull sets in recompress mode.
	RegionEntropy compress.EntropyAlgo
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
	// Net is the virtual cluster; if Net.ComputeSec is zero it is
	// calibrated from the model size at 1 Gbps with ratio 1.5 (paper regime).
	Net netsim.Params
	// MinCompressElems exempts small tensors (paper behavior). Zero means 256.
	MinCompressElems int
	// Parallelism bounds the per-node worker pool that compresses and
	// decompresses layer tensors concurrently (see ps.Config.Parallelism).
	// Within each tensor the budget is spent work-proportionally: the two
	// fused compress passes of internal/kernel each size their own
	// goroutine fan-out under this cap (kernel.PassWorkers). Zero means
	// GOMAXPROCS; 1 forces serial kernels, which the alloc-free
	// steady-state benchmarks use.
	Parallelism int
	// Optimizer overrides the server-side SGD configuration; nil uses
	// opt.DefaultSGDConfig(Workers, Steps), the paper's hyperparameters.
	Optimizer *opt.SGDConfig
	// EvalEvery evaluates test accuracy every this many steps (0: only at end).
	EvalEvery int
	// RecordSteps keeps the per-step traffic/loss series (Figures 7 and 9).
	RecordSteps bool
	// OnGradients, if non-nil, observes worker 0's raw gradient tensors
	// each step (after the backward pass, before compression). Used by
	// the gradient-statistics analysis; must not mutate the tensors.
	OnGradients func(step int, params []*nn.Param)

	// BackupWorkers enables the straggler mitigation of §2.1 (TensorFlow
	// SyncReplicasOptimizer): each step advances once Workers-BackupWorkers
	// pushes have arrived, and the slowest workers' pushes are discarded.
	// Worker 0 (the chief, which owns batch-norm state) is never dropped.
	// Zero disables the feature (plain BSP).
	BackupWorkers int
	// ComputeJitterStd is the per-worker, per-step lognormal-ish jitter
	// on virtual compute time (fraction of ComputeSec), modelling
	// stragglers. Zero means perfectly uniform workers.
	ComputeJitterStd float64

	// Staleness emulates stale synchronous parallel execution (§2.1):
	// worker w applies model pulls with a fixed delay of w mod
	// (Staleness+1) steps, so local models lag the global model by up to
	// Staleness updates. Worker 0 (the chief) always stays fresh. Zero
	// means fully synchronous BSP. The paper's background observation —
	// stale updates need more steps for the same accuracy — is
	// reproducible by sweeping this knob.
	Staleness int
	// Dropouts schedules elastic worker dropout and rejoin. During
	// [From, To) the worker is down: it neither computes, pushes, nor
	// pulls, and the step barrier advances without it (the server's
	// gradient average divides by the pushes actually received). At step
	// To the worker rejoins: it first catches up its replica by applying,
	// in order, the shared pull wires it missed (the driver retains copies
	// while a worker is away), then trains normally. Its push-side
	// error-accumulation contexts are untouched during the absence, so the
	// residual accumulated before the dropout folds into its first push
	// after rejoining — the paper's dropout-tolerance argument (§3.1:
	// unsent changes are retried at later steps). Worker 0 (the chief,
	// batch-norm owner) must never drop. Dropouts cannot be combined with
	// Staleness > 0: a stale worker applies pulls from `delay` steps ago,
	// so the catch-up replay of fresh pull sets would double-apply some
	// and skip others — Run rejects the combination.
	Dropouts []Dropout

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
	// OnStep, if non-nil, runs after each completed step (after any
	// checkpoint for that step has been scheduled). Returning an error
	// aborts the run with that error — tests use it to emulate a crash at
	// an arbitrary step.
	OnStep func(step int) error

	// Service, when non-nil, runs this job over a shared multi-tenant
	// shard tier (shard.Service) instead of a dedicated server: the run
	// is admitted as Tenant under TenantLimits at start and retired when
	// it returns. Many Runs may share one Service concurrently — each
	// job's aggregation stays bit-identical to a solo run because the
	// tier's fairness reorders only BETWEEN tenants. Mutually exclusive
	// with Shards > 1 (the shared tier's shard count is the Service's).
	Service *shard.Service
	// Tenant is the job's identity on the shared Service. The default
	// zero value is the default tenant, so single-job runs need no id.
	Tenant tenant.ID
	// TenantLimits bounds the job on the shared Service (outstanding
	// budget, step/byte quotas, DRR quantum). Zero means unlimited.
	TenantLimits tenant.Limits

	// Seed controls data sampling; model init comes from BuildModel.
	Seed uint64
}

// Dropout is one worker-absence interval: the worker is down for steps
// [From, To) and rejoins at step To (To >= Steps means it never returns).
type Dropout struct {
	Worker   int
	From, To int
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
	// ComputeMult scales the virtual compute time this step (straggler
	// jitter under backup workers; 1 for plain BSP).
	ComputeMult float64
	// VirtualSec is the step's simulated duration.
	VirtualSec float64
	// WANBytes totals the step's inter-region traffic across all regions
	// and both directions (hierarchical topologies only).
	WANBytes int
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
	// Shards is the parameter-server shard count the run used (1 = the
	// single in-process server).
	Shards int
	// Regions is the hierarchical region count (1 = flat topology).
	Regions int
	// Steps is how many steps this run executed and every total below
	// covers: cfg.Steps, less the steps a ResumeFrom checkpoint had done.
	Steps    int
	NumParam int
	// CompressibleElems is the element count of tensors subject to
	// compression (per push or pull).
	CompressibleElems int

	FinalAccuracy float64
	FinalLoss     float64

	TotalVirtualSec float64
	PerStepSec      float64

	TotalPushBytes int64
	TotalPullBytes int64
	// RawBytes is what the 32-bit float baseline would have moved in total.
	RawBytes int64
	// TotalWANBytes totals inter-region traffic over the run, both
	// directions across all regions (hierarchical topologies only).
	TotalWANBytes int64
	// CompPushBytes / CompPullBytes total the compressible-tensor wire
	// bytes (per-worker average), for compression-ratio accounting.
	CompPushBytes float64
	CompPullBytes float64

	CodecSec float64 // summed critical-path codec time (real, measured)

	// Net is the calibrated virtual cluster the run was timed under.
	Net netsim.Params

	StepRecords []StepRecord
	Evals       []EvalRecord
}

// TimeAt recomputes the run's total virtual training time under a
// different link bandwidth, using the recorded per-step traffic — the same
// extrapolation the paper's measurement methodology performs (§5.2).
// It requires the run to have been executed with RecordSteps.
func (r *Result) TimeAt(bandwidthBps float64) float64 {
	if len(r.StepRecords) == 0 {
		panic("train: TimeAt needs RecordSteps")
	}
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
		step := net
		if sr.ComputeMult > 0 {
			step.ComputeSec *= sr.ComputeMult
		}
		total += step.StepTime(push, pull, sr.CodecSec)
	}
	return total
}

// CompressionRatio returns raw/compressed over the compressible tensors,
// averaged over pushes and pulls (Table 2's "compression ratio").
func (r *Result) CompressionRatio() float64 {
	raw := float64(r.CompressibleElems) * 4 * float64(r.Steps) * 2 // push + pull per step
	comp := r.CompPushBytes + r.CompPullBytes
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

// Run executes the configured training run.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("train: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.BuildModel == nil {
		return nil, fmt.Errorf("train: BuildModel is required")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("train: Shards %d must be >= 0", cfg.Shards)
	}
	if cfg.MinCompressElems == 0 {
		cfg.MinCompressElems = 256
	}

	trainSet, testSet := data.Synthetic(cfg.Data)

	global := cfg.BuildModel()
	optCfg := opt.DefaultSGDConfig(cfg.Workers, cfg.Steps)
	if cfg.Optimizer != nil {
		optCfg = *cfg.Optimizer
		optCfg.Workers = cfg.Workers
		optCfg.TotalSteps = cfg.Steps
	}
	workerParallelism := cfg.Parallelism
	if workerParallelism == 0 {
		// All simulated workers run their codec phases on concurrent
		// goroutines, so per-node fan-out multiplies by cfg.Workers;
		// divide the cores among them instead of letting every node claim
		// GOMAXPROCS.
		workerParallelism = runtime.GOMAXPROCS(0) / cfg.Workers
		if workerParallelism < 1 {
			workerParallelism = 1
		}
	}
	psCfg := ps.Config{
		Scheme:           cfg.Design.Scheme,
		Opts:             cfg.Design.Opts,
		Workers:          cfg.Workers,
		MinCompressElems: cfg.MinCompressElems,
		Parallelism:      workerParallelism,
		Optimizer:        optCfg,
	}
	// The server's decode/aggregate and pull-compress phases run alone —
	// every worker goroutine is parked at the BSP barrier — so the server
	// keeps the full budget; dividing by Workers would idle cores on the
	// measured codec critical path.
	serverCfg := psCfg
	serverCfg.Parallelism = cfg.Parallelism
	// shardSplit divides the server budget across `shards` PS nodes so
	// the tier as a whole stays within it.
	shardSplit := func(shards int) ps.Config {
		scfg := serverCfg
		par := scfg.Parallelism
		if par == 0 {
			par = runtime.GOMAXPROCS(0)
		}
		scfg.Parallelism = par / shards
		if scfg.Parallelism < 1 {
			scfg.Parallelism = 1
		}
		return scfg
	}
	var server stepServer
	switch {
	case cfg.Service != nil:
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("train: Shards and Service are mutually exclusive (the shared tier's shard count is the Service's)")
		}
		h, err := cfg.Service.Admit(cfg.Tenant, global, shardSplit(cfg.Service.NumShards()), cfg.TenantLimits)
		if err != nil {
			return nil, fmt.Errorf("train: admit tenant %d: %w", cfg.Tenant, err)
		}
		defer cfg.Service.Retire(cfg.Tenant)
		server = h
	case cfg.Shards > 1:
		cluster, err := shard.NewCluster(global, shardSplit(cfg.Shards), shard.Config{Shards: cfg.Shards})
		if err != nil {
			return nil, fmt.Errorf("train: build shard tier: %w", err)
		}
		defer cluster.Close()
		server = cluster
	default:
		server = ps.NewJob(global, serverCfg)
	}

	// Hierarchical topology: interpose the region tier between the
	// driver's per-worker sessions and the global server.
	var tier *region.Tier
	if cfg.Regions > 1 {
		if cfg.Shards > 1 || cfg.Service != nil {
			return nil, fmt.Errorf("train: Regions requires the single in-process server (no Shards/Service)")
		}
		if len(cfg.Dropouts) > 0 || cfg.BackupWorkers > 0 {
			return nil, fmt.Errorf("train: Regions cannot be combined with Dropouts or BackupWorkers")
		}
		var err error
		tier, err = region.NewTier(server, global.Params(), region.Config{
			Regions:          cfg.Regions,
			Workers:          cfg.Workers,
			Recompress:       cfg.RegionRecompress,
			Entropy:          cfg.RegionEntropy,
			Scheme:           cfg.Design.Scheme,
			Opts:             cfg.Design.Opts,
			MinCompressElems: cfg.MinCompressElems,
			Parallelism:      cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		server = tier
	}

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
		if len(shards[w]) == 0 {
			return nil, fmt.Errorf("train: worker %d has an empty shard (%d examples, %d workers)",
				w, trainSet.Len(), cfg.Workers)
		}
	}

	// Traffic bookkeeping.
	params := global.Params()
	numParam := global.NumParams()
	compElems := 0
	compressible := make([]bool, len(params))
	for i, p := range params {
		if cfg.Design.Scheme != compress.SchemeNone && !p.NoCompress && p.W.Len() >= cfg.MinCompressElems {
			compressible[i] = true
			compElems += p.W.Len()
		}
	}

	net := cfg.Net
	if net.Workers == 0 {
		net.Workers = cfg.Workers
	}
	if net.Workers != cfg.Workers {
		return nil, fmt.Errorf("train: netsim has %d workers, run has %d", net.Workers, cfg.Workers)
	}
	if net.ComputeSec == 0 {
		net.Calibrate(numParam*4, netsim.Gbps1, 1.5)
	}
	// Sharding divides aggregate push/pull traffic across the shard NICs.
	// Applied after Calibrate so the compute-to-communication calibration
	// stays anchored to the paper's single-server regime.
	tierShards := cfg.Shards
	if cfg.Service != nil {
		tierShards = cfg.Service.NumShards()
	}
	if tierShards > 1 && net.Servers <= 1 {
		net.Servers = tierShards
	}
	if cfg.Regions > 1 {
		net.Regions = cfg.Regions
		if net.WANBandwidthBps == 0 {
			// Default WAN regime: 100 Mbps inter-region links at 20 ms
			// one-way latency, far below the local star's bandwidth.
			net.WANBandwidthBps = netsim.Mbps100
			net.WANLatencySec = 20e-3
		}
	}

	res := &Result{
		Design:            cfg.Design,
		Workers:           cfg.Workers,
		Shards:            max(tierShards, 1),
		Regions:           max(cfg.Regions, 1),
		Steps:             cfg.Steps,
		NumParam:          numParam,
		CompressibleElems: compElems,
	}

	var clock netsim.Clock
	augment := data.Augment
	if !cfg.Augment {
		augment = nil
	}

	type workerOut struct {
		wires    [][]byte
		loss     float64
		compDur  time.Duration
		applyDur time.Duration
		err      error // rejoin-replay or pull-decode failure, surfaced by Run
	}
	outs := make([]workerOut, cfg.Workers)

	if cfg.BackupWorkers < 0 || cfg.BackupWorkers >= cfg.Workers {
		return nil, fmt.Errorf("train: BackupWorkers %d must be in [0, workers)", cfg.BackupWorkers)
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("train: Staleness %d must be >= 0", cfg.Staleness)
	}
	if len(cfg.Dropouts) > 0 && cfg.Staleness > 0 {
		// A worker with SSP delay d applies the pull from d steps ago; the
		// rejoin replay of the fresh per-step sets would double-apply the
		// last d of them and never apply the d sets before the dropout.
		return nil, fmt.Errorf("train: Dropouts cannot be combined with Staleness > 0")
	}
	for _, d := range cfg.Dropouts {
		if d.Worker <= 0 || d.Worker >= cfg.Workers {
			return nil, fmt.Errorf("train: dropout worker %d must be in [1, workers) — the chief cannot drop", d.Worker)
		}
		if d.From < 0 || d.To <= d.From {
			return nil, fmt.Errorf("train: dropout interval [%d, %d) invalid", d.From, d.To)
		}
	}
	jitterRNG := tensor.NewRNG(cfg.Seed ^ 0x4a49545445520000) // "JITTER"
	var pullHistory [][][]byte                                // ring of recent pull wire sets (SSP emulation)

	// Elastic-dropout bookkeeping: down tells whether a worker is absent
	// at a step; returnStep is the step it next computes at; missed[w]
	// retains the pull wire sets an absent worker must replay on rejoin.
	down := func(w, step int) bool {
		for _, d := range cfg.Dropouts {
			if d.Worker == w && step >= d.From && step < d.To {
				return true
			}
		}
		return false
	}
	returnStep := func(w, step int) int {
		t := step + 1
		for t < cfg.Steps && down(w, t) {
			t++
		}
		return t
	}
	missed := make([][][][]byte, cfg.Workers)

	startStep := 0
	if cfg.ResumeFrom != "" {
		st, err := checkpoint.LoadStateFile(cfg.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		startStep, err = restoreRunState(st, &cfg, global, server, workers, rngs, jitterRNG, &pullHistory, missed)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		res.Steps = cfg.Steps - startStep
	}
	ckpt := ckptWriter{path: cfg.CheckpointPath}
	defer ckpt.wait() // join any in-flight write on early error returns

	for step := startStep; step < cfg.Steps; step++ {
		// Straggler model: draw per-worker compute-time multipliers up
		// front (the jitter RNG is independent of the compute phase, so
		// the draw order — and every result — is unchanged). Under plain
		// BSP the barrier waits for the slowest worker; with backup
		// workers (§2.1), the step advances once Workers-BackupWorkers
		// pushes arrive and the stragglers' updates are discarded. The
		// chief (worker 0, batch-norm owner) is never dropped.
		// Elastic dropout: absent workers take no part in the step at all.
		active := make([]bool, cfg.Workers)
		nActive := 0
		for w := range active {
			if !down(w, step) {
				active[w] = true
				nActive++
			}
		}

		accepted := make([]bool, cfg.Workers)
		computeMult := 1.0
		if cfg.ComputeJitterStd > 0 {
			// Multipliers are drawn for every worker — absent ones
			// included — so the jitter stream stays aligned with the
			// no-dropout run and with checkpoint/resume.
			mults := make([]float64, cfg.Workers)
			for w := range mults {
				sd := cfg.ComputeJitterStd
				mults[w] = math.Exp(sd*jitterRNG.Norm() - 0.5*sd*sd)
			}
			need := nActive - cfg.BackupWorkers
			if need < 1 {
				need = 1
			}
			order := make([]int, cfg.Workers)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return mults[order[a]] < mults[order[b]] })
			accepted[0] = true
			computeMult = mults[0]
			count := 1
			for _, w := range order {
				if w == 0 || !active[w] || count >= need {
					continue
				}
				accepted[w] = true
				count++
				if mults[w] > computeMult {
					computeMult = mults[w]
				}
			}
		} else {
			copy(accepted, active)
			if cfg.BackupWorkers > 0 {
				// No jitter: dropping is arbitrary; keep the first
				// active workers for determinism.
				dropped := 0
				for w := cfg.Workers - 1; w > 0 && dropped < cfg.BackupWorkers; w-- {
					if accepted[w] {
						accepted[w] = false
						dropped++
					}
				}
			}
		}

		// Overlapped push/aggregate pipeline: local computation + gradient
		// compression run in parallel across workers, and each ACCEPTED
		// worker streams its tensors into a buffered channel the moment
		// they are compressed. The aggregator below ingests them — in
		// strict worker order per tensor, which keeps the gradient sums
		// byte-identical to the staged serial driver — while later workers
		// are still computing and compressing: the server aggregates
		// worker w's push during worker w+1's compute instead of after the
		// whole barrier. Dropped workers still compress (their error-
		// accumulation contexts must advance) but nothing is ingested.
		server.BeginStep()
		type tensorWire struct {
			i    int
			wire []byte
		}
		streams := make([]chan tensorWire, cfg.Workers)
		for w := range streams {
			if accepted[w] {
				// Buffered to the tensor count: emitters never block, so
				// a slow aggregator cannot stall the compute phase.
				streams[w] = make(chan tensorWire, len(params))
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			outs[w] = workerOut{}
			if !active[w] {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Rejoin catch-up: a worker returning from a dropout first
				// replays, in order, the shared pulls it missed, bringing
				// its replica to the exact state an always-present replica
				// holds at this step. Its push contexts were frozen while
				// away, so the pre-dropout residual folds into this step's
				// push.
				for _, ws := range missed[w] {
					if _, err := workers[w].ApplyPull(ws); err != nil {
						outs[w].err = fmt.Errorf("train: worker %d rejoin catch-up: %w", w, err)
						if streams[w] != nil {
							close(streams[w])
						}
						return
					}
				}
				missed[w] = nil
				idx := make([]int, cfg.BatchPerWorker)
				for i := range idx {
					idx[i] = shards[w][rngs[w].Intn(len(shards[w]))]
				}
				var x *tensor.Tensor
				var labels []int
				if cfg.FlatInput {
					x, labels = trainSet.FlatBatch(idx, augment, rngs[w])
				} else {
					x, labels = trainSet.Batch(idx, augment, rngs[w])
				}
				outs[w].loss = workers[w].Model.TrainStep(x, labels)
				if w == 0 && cfg.OnGradients != nil {
					cfg.OnGradients(step, workers[0].Model.Params())
				}
				if accepted[w] {
					outs[w].wires, outs[w].compDur = workers[w].CompressGradsStream(func(i int, wire []byte) {
						streams[w] <- tensorWire{i: i, wire: wire}
					})
					close(streams[w])
				} else {
					outs[w].wires, outs[w].compDur = workers[w].CompressGrads()
				}
			}(w)
		}

		// Aggregator: per-tensor ingestion in worker order, concurrent
		// with the compute goroutines above. serverDecode accumulates only
		// the time spent inside the server (channel waits are compute
		// overlap, not codec cost).
		var serverDecode time.Duration
		var aggErr error
		for w := 0; w < cfg.Workers; w++ {
			if streams[w] == nil {
				continue
			}
			sess := server.BeginPush(w)
			for tw := range streams[w] {
				if aggErr != nil {
					continue // drain so the emitter's close is reached
				}
				t0 := time.Now()
				err := sess.Tensor(tw.i, tw.wire)
				serverDecode += time.Since(t0)
				if err != nil {
					aggErr = err
				}
			}
			if aggErr == nil {
				aggErr = sess.End()
			}
		}
		wg.Wait()
		if aggErr != nil {
			return nil, aggErr
		}
		for w := range outs {
			if outs[w].err != nil {
				return nil, outs[w].err
			}
		}

		pushBytes := make([]int, cfg.Workers)
		var compPush float64
		nAccepted := 0
		for w := 0; w < cfg.Workers; w++ {
			if !accepted[w] {
				continue
			}
			nAccepted++
			pushBytes[w] = ps.WireBytes(outs[w].wires)
			for i, wire := range outs[w].wires {
				if compressible[i] {
					compPush += float64(len(wire))
				}
			}
		}
		compPush /= float64(nAccepted)

		// Update + shared pull compression.
		pullWires, serverComp, err := server.FinishStep()
		if err != nil {
			return nil, err
		}
		pullPerWorker := ps.WireBytes(pullWires)
		pullBytes := make([]int, cfg.Workers)
		var compPull float64
		for i, wire := range pullWires {
			if compressible[i] {
				compPull += float64(len(wire))
			}
		}
		for w := range pullBytes {
			if active[w] {
				pullBytes[w] = pullPerWorker
			}
		}

		// Pull phase: workers decompress and apply, in parallel. Under
		// stale-synchronous emulation each worker applies the pull from
		// `delay_w` steps ago instead of the fresh one. FinishStep's wires
		// alias server-owned buffers that are overwritten next step, so
		// retaining history (Staleness > 0) requires a deep copy; the
		// synchronous path uses the fresh wires directly and stays
		// allocation-free.
		if cfg.Staleness > 0 {
			cp := make([][]byte, len(pullWires))
			for i, w := range pullWires {
				if w != nil {
					cp[i] = append([]byte(nil), w...)
				}
			}
			pullHistory = append(pullHistory, cp)
		} else {
			pullHistory = append(pullHistory[:0], pullWires)
		}
		for w := 0; w < cfg.Workers; w++ {
			if !active[w] {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				delay := 0
				if cfg.Staleness > 0 {
					delay = w % (cfg.Staleness + 1)
				}
				idx := len(pullHistory) - 1 - delay
				if idx < 0 {
					return // worker has no pull to apply yet
				}
				d, err := workers[w].ApplyPull(pullHistory[idx])
				if err != nil {
					// A wire that fails to decode — a corrupted shared pull —
					// must kill the step, not the process: elastic recovery
					// (dropout, resume) lives above this error path.
					outs[w].err = fmt.Errorf("train: worker %d pull apply: %w", w, err)
					return
				}
				outs[w].applyDur = d
			}(w)
		}
		wg.Wait()
		for w := range outs {
			if outs[w].err != nil {
				return nil, outs[w].err
			}
		}
		// Retain the shared pull for workers that are away and will rejoin:
		// their replicas replay these sets, in order, at the rejoin step.
		// All of a step's absentees share one deep copy (applies are
		// read-only); workers that never return retain nothing.
		var missedCopy [][]byte
		for w := 0; w < cfg.Workers; w++ {
			if active[w] || returnStep(w, step) >= cfg.Steps {
				continue
			}
			if missedCopy == nil {
				missedCopy = make([][]byte, len(pullWires))
				for i, pw := range pullWires {
					if pw != nil {
						missedCopy[i] = append([]byte(nil), pw...)
					}
				}
			}
			missed[w] = append(missed[w], missedCopy)
		}
		if drop := len(pullHistory) - (cfg.Staleness + 1); drop > 0 {
			pullHistory = pullHistory[drop:]
		}

		// Codec critical path: slowest worker compress + server decode of
		// all pushes + server compress + slowest worker apply.
		var maxComp, maxApply time.Duration
		for w := 0; w < cfg.Workers; w++ {
			if outs[w].compDur > maxComp {
				maxComp = outs[w].compDur
			}
			if outs[w].applyDur > maxApply {
				maxApply = outs[w].applyDur
			}
		}
		codec := (maxComp + serverDecode + serverComp + maxApply).Seconds()
		netStep := net
		netStep.ComputeSec *= computeMult
		dt := netStep.StepTime(pushBytes, pullBytes, codec)
		var wanBytes int
		if tier != nil {
			// The WAN leg starts only after regional aggregation, so it
			// adds to the step un-overlapped (see netsim.WANTime).
			wanPush, wanPull := tier.WANBytes()
			dt += netStep.WANTime(wanPush, wanPull)
			wanBytes = sum(wanPush) + sum(wanPull)
			res.TotalWANBytes += int64(wanBytes)
		}
		clock.Advance(dt)

		var meanLoss float64
		for w := 0; w < cfg.Workers; w++ {
			if active[w] {
				meanLoss += outs[w].loss
			}
		}
		meanLoss /= float64(nActive)

		for _, b := range pushBytes {
			res.TotalPushBytes += int64(b)
		}
		for _, b := range pullBytes {
			res.TotalPullBytes += int64(b)
		}
		res.CompPushBytes += compPush
		res.CompPullBytes += compPull
		res.CodecSec += codec
		res.FinalLoss = meanLoss

		if cfg.RecordSteps {
			res.StepRecords = append(res.StepRecords, StepRecord{
				Step:          step,
				Loss:          meanLoss,
				PushBytes:     sum(pushBytes),
				PullBytes:     sum(pullBytes),
				CompPushBytes: compPush,
				CompPullBytes: compPull,
				CodecSec:      codec,
				ComputeMult:   computeMult,
				VirtualSec:    dt,
				WANBytes:      wanBytes,
			})
		}
		if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
			// Batch-norm running statistics live on the designated
			// worker (worker 0, §5.2); sync them to the global model
			// before evaluating it.
			nn.CopyBatchNormStats(global, workers[0].Model)
			acc := Evaluate(global, testSet, 100, cfg.FlatInput)
			res.Evals = append(res.Evals, EvalRecord{Step: step + 1, Accuracy: acc})
		}

		// Periodic full-state checkpoint: serialize the snapshot here, at
		// the step boundary (AppendState/checkpoint.Save copy every buffer
		// they touch), and hand the finished bytes to a background writer —
		// the file I/O overlaps the following steps' compute.
		if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
			st, err := captureRunState(&cfg, step+1, global, server, workers, rngs, jitterRNG, pullHistory, missed)
			if err != nil {
				return nil, err
			}
			if err := ckpt.write(st); err != nil {
				return nil, fmt.Errorf("train: checkpoint write: %w", err)
			}
		}
		if cfg.OnStep != nil {
			if err := cfg.OnStep(step); err != nil {
				return nil, err
			}
		}
	}
	if err := ckpt.wait(); err != nil {
		return nil, fmt.Errorf("train: checkpoint write: %w", err)
	}

	nn.CopyBatchNormStats(global, workers[0].Model)
	res.FinalAccuracy = Evaluate(global, testSet, 100, cfg.FlatInput)
	if cfg.EvalEvery > 0 && (len(res.Evals) == 0 || res.Evals[len(res.Evals)-1].Step != cfg.Steps) {
		res.Evals = append(res.Evals, EvalRecord{Step: cfg.Steps, Accuracy: res.FinalAccuracy})
	}
	res.TotalVirtualSec = clock.Seconds()
	res.PerStepSec = clock.PerStep()
	res.Net = net
	res.RawBytes = int64(numParam) * 4 * int64(res.Steps) * int64(cfg.Workers) * 2
	return res, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Evaluate computes top-1 test accuracy of model over ds in batches.
func Evaluate(model *nn.Model, ds *data.Dataset, batch int, flat bool) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for start := 0; start < ds.Len(); start += batch {
		end := start + batch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		var x *tensor.Tensor
		var labels []int
		if flat {
			x, labels = ds.FlatBatch(idx, nil, nil)
		} else {
			x, labels = ds.Batch(idx, nil, nil)
		}
		pred := model.Predict(x)
		for i, p := range pred {
			if p == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}
