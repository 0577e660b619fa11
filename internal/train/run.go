package train

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// run is one Run call's state: what set-up builds and the steps mutate.
type run struct {
	cfg               Config
	res               *Result
	trainSet, testSet *data.Dataset
	augment           func(src, dst *tensor.Tensor, r *tensor.RNG)

	global *nn.Model
	tier   ps.Tier   // what the steps drive: a dialed tier as is, any other behind inOrder
	dialed bool      // tier is dialed: its pull is seat 0's, the owner's
	closer io.Closer // the built tier, if it wants closing

	workers      []*ps.Worker
	rngs         []*tensor.RNG // per-worker batch samplers
	shards       [][]int       // per-worker slice of the training set
	compressible []bool        // per tensor: subject to the codec

	net   netsim.Params
	clock netsim.Clock
	// The step's pull as each worker is sent it (ps.Pulls), recycled.
	ownerPull, fullPull [][]byte

	outs      []workerOut
	ckpt      ckptWriter
	startStep int
}

// workerOut is what one worker's goroutines leave behind in a step.
type workerOut struct {
	wires    [][]byte
	loss     float64
	compDur  time.Duration
	applyDur time.Duration
}

// dialed is what a tier over connections (transport.DialedTier) has and an
// in-process tier lacks; see Config.Tier for what Run concludes from it.
type dialed interface{ Seats() int }

// validate refuses what no tier can run.
func (cfg *Config) validate() error {
	switch {
	case cfg.Workers < 1:
		return fmt.Errorf("train: need at least 1 worker, got %d", cfg.Workers)
	case cfg.BuildModel == nil:
		return fmt.Errorf("train: BuildModel is required")
	case cfg.Shards < 0:
		return fmt.Errorf("train: Shards %d must be >= 0", cfg.Shards)
	case cfg.Shards > 1 && cfg.Tier != nil:
		return fmt.Errorf("train: Shards and Tier are mutually exclusive (the hook's tier has its own shard count)")
	case cfg.Net.Workers != 0 && cfg.Net.Workers != cfg.Workers:
		return fmt.Errorf("train: netsim has %d workers, run has %d", cfg.Net.Workers, cfg.Workers)
	}
	return nil
}

// newRun is the set-up: data, models, tier, workers, the virtual cluster
// and, under ResumeFrom, the restored state. On an error it has released
// what it built.
func newRun(cfg Config) (_ *run, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MinCompressElems == 0 {
		cfg.MinCompressElems = 256
	}
	r := &run{
		cfg:  cfg,
		outs: make([]workerOut, cfg.Workers),
		ckpt: ckptWriter{path: cfg.CheckpointPath},
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.trainSet, r.testSet = data.Synthetic(cfg.Data)
	if cfg.Augment {
		r.augment = data.Augment
	}
	r.global = cfg.BuildModel()

	optCfg := opt.DefaultSGDConfig(cfg.Workers, cfg.Steps)
	if cfg.Optimizer != nil {
		optCfg = *cfg.Optimizer
		optCfg.Workers = cfg.Workers
		optCfg.TotalSteps = cfg.Steps
	}
	psCfg := ps.Config{
		Scheme:           cfg.Design.Scheme,
		Opts:             cfg.Design.Opts,
		Workers:          cfg.Workers,
		MinCompressElems: cfg.MinCompressElems,
		Parallelism:      cfg.Parallelism,
		Optimizer:        optCfg,
	}
	if psCfg.Parallelism == 0 {
		// All workers run their codec phases on concurrent goroutines, so
		// per-node fan-out multiplies by cfg.Workers; divide the cores among
		// them instead of letting every node claim GOMAXPROCS.
		psCfg.Parallelism = max(runtime.GOMAXPROCS(0)/cfg.Workers, 1)
	}
	// The server's decode/aggregate and pull-compress phases run alone —
	// every worker goroutine is parked at the BSP barrier — so the server
	// keeps the full budget; dividing by Workers would idle cores on the
	// measured codec critical path.
	serverCfg := psCfg
	serverCfg.Parallelism = cfg.Parallelism
	tierShards, err := r.buildTier(serverCfg)
	if err != nil {
		return nil, err
	}

	r.workers = make([]*ps.Worker, cfg.Workers)
	r.rngs = make([]*tensor.RNG, cfg.Workers)
	r.shards = make([][]int, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		m := cfg.BuildModel()
		m.CopyParamsFrom(r.global)
		r.workers[w] = ps.NewWorker(w, m, psCfg)
		r.rngs[w] = tensor.NewRNG(cfg.Seed + 1000*uint64(w) + 7)
		for i := w; i < r.trainSet.Len(); i += cfg.Workers {
			r.shards[w] = append(r.shards[w], i)
		}
		if len(r.shards[w]) == 0 {
			return nil, fmt.Errorf("train: worker %d has an empty shard (%d examples, %d workers)",
				w, r.trainSet.Len(), cfg.Workers)
		}
	}

	// Traffic bookkeeping.
	params := r.global.Params()
	numParam := r.global.NumParams()
	compElems := 0
	r.compressible = make([]bool, len(params))
	for i, p := range params {
		if psCfg.Compresses(p) {
			r.compressible[i] = true
			compElems += p.W.Len()
		}
	}

	r.net = cfg.Net
	r.net.Workers = cfg.Workers
	if r.net.ComputeSec == 0 {
		r.net.Calibrate(numParam*4, netsim.Gbps1, 1.5)
	}
	// Sharding divides aggregate push/pull traffic across the shard NICs.
	// Applied after Calibrate so the compute-to-communication calibration
	// stays anchored to the paper's single-server regime.
	if tierShards > 1 && r.net.Servers <= 1 {
		r.net.Servers = tierShards
	}

	r.res = &Result{
		Design:            cfg.Design,
		Workers:           cfg.Workers,
		Shards:            tierShards,
		Steps:             cfg.Steps,
		NumParam:          numParam,
		CompressibleElems: compElems,
	}
	if cfg.ResumeFrom != "" {
		st, err := checkpoint.LoadStateFile(cfg.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		if r.startStep, err = r.restore(st); err != nil {
			return nil, fmt.Errorf("train: resume: %w", err)
		}
		r.res.Steps = cfg.Steps - r.startStep
	}
	return r, nil
}

// buildTier builds the run's tier — the hook's, or by Shards — and puts
// every in-process tier behind the worker-order gate. It returns the tier's
// shard count.
func (r *run) buildTier(serverCfg ps.Config) (int, error) {
	cfg := &r.cfg
	build := cfg.Tier
	if build == nil {
		build = func(global *nn.Model, scfg ps.Config) (ps.Tier, error) {
			if cfg.Shards <= 1 {
				return ps.NewJob(global, scfg), nil
			}
			cl, err := shard.NewCluster(global, scfg.SplitAcross(cfg.Shards), shard.Config{Shards: cfg.Shards})
			if err != nil {
				return nil, fmt.Errorf("train: build shard tier: %w", err)
			}
			return cl, nil
		}
	}
	tier, err := build(r.global, serverCfg)
	if err != nil {
		return 0, err
	}
	r.closer, _ = tier.(io.Closer)
	shards := 1
	if s, ok := tier.(interface{ NumShards() int }); ok {
		shards = s.NumShards()
	}
	if d, ok := tier.(dialed); ok {
		switch {
		case d.Seats() != cfg.Workers:
			return 0, fmt.Errorf("train: the dialed tier has %d seats, the run has %d workers", d.Seats(), cfg.Workers)
		case cfg.CheckpointPath != "" || cfg.ResumeFrom != "":
			return 0, fmt.Errorf("train: a dialed tier holds no state: CheckpointPath and ResumeFrom need an in-process tier")
		}
		r.tier, r.dialed = tier, true
		return shards, nil
	}
	r.tier = &inOrder{Tier: tier, tensors: len(r.global.Params())}
	return shards, nil
}

// close joins any in-flight checkpoint write and closes the tier.
func (r *run) close() {
	r.ckpt.wait() // its error was reported by finish, or an earlier one is being returned
	if r.closer != nil {
		r.closer.Close() // nothing left to do about a failed close
	}
}

// computePush is the step's first half: every worker trains on a batch and
// compresses, feeding its tensors to its push session as they are
// compressed, while the tier's FinishStep, on this goroutine, returns the
// shared pull once the sessions have ended. They are opened here, in worker
// order, before any worker starts: the order an in-process tier's gate
// (inOrder) aggregates in; a dialed tier takes the pushes as they come.
func (r *run) computePush(step int) ([][]byte, time.Duration, error) {
	r.tier.BeginStep()
	sessions := make([]ps.PushSession, r.cfg.Workers)
	for w := range sessions {
		sessions[w] = r.tier.BeginPush(w)
	}
	clear(r.outs)
	wait := r.goAll(func(w int) error { return r.workerPush(step, w, sessions[w]) })
	pull, serverDur, err := r.tier.FinishStep()
	// A worker's own failure explains whatever the tier made of its push.
	if werr := wait(); werr != nil {
		return nil, 0, werr
	}
	return pull, serverDur, err
}

// goAll starts fn(w) on its own goroutine for every worker and returns the
// wait that joins them and reports the first failure.
func (r *run) goAll(fn func(w int) error) (wait func() error) {
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	return func() error {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// workerPush is worker w's half of computePush. However it ends, the
// session is ended: the tier's FinishStep waits for that.
func (r *run) workerPush(step, w int, push ps.PushSession) (err error) {
	wk, out := r.workers[w], &r.outs[w]
	defer func() {
		if e := push.End(); err == nil {
			err = e
		}
	}()
	idx := make([]int, r.cfg.BatchPerWorker)
	for i := range idx {
		idx[i] = r.shards[w][r.rngs[w].Intn(len(r.shards[w]))]
	}
	batch := r.trainSet.Batch
	if r.cfg.FlatInput {
		batch = r.trainSet.FlatBatch
	}
	out.loss = wk.Model.TrainStep(batch(idx, r.augment, r.rngs[w]))
	if w == 0 && r.cfg.OnGradients != nil {
		r.cfg.OnGradients(step, wk.Model.Params())
	}
	// emit runs on the compressor pool's goroutines.
	var once sync.Once
	out.wires, out.compDur = wk.CompressGradsStream(func(i int, wire []byte) {
		if e := push.Tensor(i, wire); e != nil {
			once.Do(func() { err = e })
		}
	})
	return err
}

// applyPull is the step's second half: every worker decompresses and
// applies the pull it is sent (ps.Pulls). The owner goes first: it is sent
// the tier's pull less its owner-only slots, whose step it takes itself,
// and over a dialed tier the tier's pull is seat 0's — the one the owner
// was sent — which the owner then completes for the others from that step
// (ps.Worker.Complete). The others apply the full pull in parallel, straight
// from the tier's buffers, allocation-free.
func (r *run) applyPull(pull [][]byte) error {
	owner := r.workers[ps.Owner]
	r.ownerPull = pull
	if !r.dialed {
		r.ownerPull = ps.OwnerView(r.global.Params(), pull, r.ownerPull)
	}
	// A wire that fails to decode — a corrupted pull — must kill the step,
	// not the process: resume lives above this error path.
	var err error
	if r.outs[ps.Owner].applyDur, err = owner.ApplyPull(r.ownerPull); err != nil {
		return fmt.Errorf("train: worker %d pull apply: %w", ps.Owner, err)
	}
	r.fullPull = owner.Complete(pull, r.fullPull)
	return r.goAll(func(w int) (err error) {
		if w == ps.Owner {
			return nil // applied above
		}
		if r.outs[w].applyDur, err = r.workers[w].ApplyPull(r.fullPull); err != nil {
			return fmt.Errorf("train: worker %d pull apply: %w", w, err)
		}
		return nil
	})()
}

// record books the finished step: its bytes, its codec critical path, its
// virtual duration, its loss, and — every EvalEvery steps — an evaluation.
func (r *run) record(step int, pull [][]byte, serverDur time.Duration) {
	cfg, res := &r.cfg, r.res
	pushBytes := make([]int, cfg.Workers)
	var compPush, paper float64
	for w := range r.workers {
		pushBytes[w] = ps.WireBytes(r.outs[w].wires)
		for i, wire := range r.outs[w].wires {
			if r.compressible[i] {
				compPush += float64(len(wire))
				paper += float64(compress.PaperWireLen(wire))
			}
		}
	}
	compPush /= float64(cfg.Workers)
	paper /= float64(cfg.Workers)

	pullBytes := make([]int, cfg.Workers)
	var compPull float64
	for i, wire := range pull {
		if r.compressible[i] {
			compPull += float64(len(wire))
			paper += float64(compress.PaperWireLen(wire))
		}
	}
	full := ps.WireBytes(r.fullPull)
	for w := range pullBytes {
		pullBytes[w] = full
	}
	pullBytes[ps.Owner] = ps.WireBytes(r.ownerPull)

	// Codec critical path: slowest worker compress + the tier's decode of
	// all pushes and pull compress (zero over a dialed tier, whose servers
	// spend it out of sight) + slowest worker apply.
	var maxComp, maxApply time.Duration
	var meanLoss float64
	for w := range r.outs {
		maxComp = max(maxComp, r.outs[w].compDur)
		maxApply = max(maxApply, r.outs[w].applyDur)
		meanLoss += r.outs[w].loss
	}
	meanLoss /= float64(cfg.Workers)
	codec := (maxComp + serverDur + maxApply).Seconds()
	dt := r.net.StepTime(pushBytes, pullBytes, codec)
	r.clock.Advance(dt)

	sr := StepRecord{Step: step, Loss: meanLoss, PushBytes: sum(pushBytes), PullBytes: sum(pullBytes),
		CompPushBytes: compPush, CompPullBytes: compPull, CodecSec: codec, VirtualSec: dt}
	res.TotalPushBytes += int64(sr.PushBytes)
	res.TotalPullBytes += int64(sr.PullBytes)
	res.CompPushBytes += compPush
	res.CompPullBytes += compPull
	res.PaperCompBytes += paper
	res.CodecSec += codec
	res.FinalLoss = meanLoss
	res.StepRecords = append(res.StepRecords, sr)
	if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
		res.Evals = append(res.Evals, EvalRecord{Step: step + 1, Accuracy: r.evaluate()})
	}
}

// evaluate is the global model's test accuracy. Batch-norm running
// statistics live on the designated worker (worker 0, §5.2); they are
// synced to the global model first.
func (r *run) evaluate() float64 {
	nn.CopyBatchNormStats(r.global, r.workers[0].Model)
	return Evaluate(r.global, r.testSet, r.cfg.FlatInput)
}

// checkpoint ends the step: the periodic full-state snapshot is serialized
// at the step boundary (AppendState/checkpoint.Save copy every buffer they
// touch) and handed to a background writer, so the file I/O overlaps the
// following steps' compute. Then OnStep has its say.
func (r *run) checkpoint(step int) error {
	cfg := &r.cfg
	if cfg.CheckpointPath != "" && cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 {
		st, err := r.capture(step + 1)
		if err != nil {
			return err
		}
		if err := r.ckpt.write(st); err != nil {
			return fmt.Errorf("train: checkpoint write: %w", err)
		}
	}
	if cfg.OnStep != nil {
		return cfg.OnStep(step)
	}
	return nil
}

// finish joins the last checkpoint write, evaluates, and totals the clocks.
func (r *run) finish() (*Result, error) {
	if err := r.ckpt.wait(); err != nil {
		return nil, fmt.Errorf("train: checkpoint write: %w", err)
	}
	cfg, res := &r.cfg, r.res
	res.FinalAccuracy = r.evaluate()
	if cfg.EvalEvery > 0 && (len(res.Evals) == 0 || res.Evals[len(res.Evals)-1].Step != cfg.Steps) {
		res.Evals = append(res.Evals, EvalRecord{Step: cfg.Steps, Accuracy: res.FinalAccuracy})
	}
	res.TotalVirtualSec = r.clock.Seconds()
	res.PerStepSec = r.clock.PerStep()
	res.Net = r.net
	// The float32 baseline moves every element from every worker that
	// pushes it (ps.Pushes) to every worker that is sent it (ps.Pulls).
	var rawPull int64
	for _, p := range r.global.Params() {
		for w := range r.workers {
			if ps.Pushes(w, p) {
				res.RawPushBytes += int64(4*p.W.Len()) * int64(res.Steps)
			}
			if ps.Pulls(w, p) {
				rawPull += int64(4*p.W.Len()) * int64(res.Steps)
			}
		}
	}
	res.RawBytes = res.RawPushBytes + rawPull
	return res, nil
}
