package ps

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/tensor"
)

// Config selects the traffic-reduction design and cluster shape.
type Config struct {
	// Scheme picks the compression design for both pushes and pulls.
	Scheme compress.Scheme
	// Opts carries scheme parameters (sparsity multiplier, fraction, ...).
	Opts compress.Options
	// Workers is the cluster size.
	Workers int
	// MinCompressElems exempts tensors with fewer elements from
	// compression (they go as raw floats). The paper exempts small layers
	// because "avoiding computation overhead far outweighs compacting
	// already small tensors".
	MinCompressElems int
	// Parallelism bounds the worker pool that compresses / decompresses a
	// node's layer tensors concurrently (contexts are per-tensor, so
	// per-tensor fan-out is safe). Zero means GOMAXPROCS; 1 forces the
	// serial path.
	Parallelism int
	// StagedAggregate routes the decode-accumulate hot paths — server-side
	// push aggregation and worker-side pull apply — through the staged
	// decode-then-add reference (decode into scratch, then a separate add
	// sweep) instead of the fused single-pass kernels. The two are
	// bit-identical for every codec (pinned by differential tests); the
	// staged path remains as the reference implementation and the
	// benchmark baseline. It also disables small-tensor batching (the
	// reference configuration keeps every per-tensor stage separate).
	StagedAggregate bool
	// SmallTensorElems coalesces a node's compressed 3LC tensors with
	// fewer elements than this into one batched compression unit
	// (compress.TernaryBatch): their error-accumulation buffers share a
	// contiguous arena and each push/pull runs them as a single pool job
	// with serial kernels and a shared wire arena, eliminating per-tensor
	// dispatch, pool scheduling, and wire bookkeeping on a model's long
	// tail of bias/scale vectors. Wires and state are bit-identical to
	// unbatched contexts. Zero means DefaultSmallTensorElems; negative
	// disables batching. Only SchemeThreeLC tensors batch (other schemes
	// and exempt tensors keep per-tensor contexts), and batching engages
	// only when at least two tensors qualify.
	SmallTensorElems int
	// Optimizer configures the server-side SGD.
	Optimizer opt.SGDConfig
}

// DefaultSmallTensorElems is the batching threshold Config.SmallTensorElems
// selects when zero: tensors this size compress in a few microseconds, so
// per-tensor pool dispatch is a measurable fraction of their cost.
const DefaultSmallTensorElems = 4096

// batchThreshold resolves the small-tensor batching threshold: 0 means
// batching is disabled (negative setting, or the staged reference
// configuration).
func (c Config) batchThreshold() int {
	if c.SmallTensorElems < 0 || c.StagedAggregate {
		return 0
	}
	if c.SmallTensorElems == 0 {
		return DefaultSmallTensorElems
	}
	return c.SmallTensorElems
}

// batchEligible reports whether tensor p joins the node's ternary batch:
// a compressed 3LC tensor below the batching threshold. The entropy
// second stage opts out — TernaryBatch members emit into a shared wire
// arena without the wrapper, and WAN configurations care about bytes,
// not tiny-tensor dispatch overhead.
func (c Config) batchEligible(p *nn.Param) bool {
	thr := c.batchThreshold()
	return thr > 0 && c.Scheme == compress.SchemeThreeLC &&
		c.Opts.Entropy == compress.EntropyOff &&
		c.shouldCompress(p) && p.W.Len() < thr
}

// buildBatch partitions a node's tensors into the coalesced tiny-tensor
// batch and the per-tensor job list. It returns the batch (nil when
// fewer than two tensors qualify — one tiny tensor gains nothing from an
// arena), the model indices of its members in member order, and the pool
// job list: one entry per unbatched tensor holding its model index, plus
// a single batchJob sentinel covering every member. Job order does not
// affect bytes (the pool is dynamic and per-tensor state is
// independent); the batch job leads so the longest job starts first.
func (c Config) buildBatch(params []*nn.Param) (batch *compress.TernaryBatch, batchIdx, jobs []int) {
	var shapes [][]int
	for i, p := range params {
		if c.batchEligible(p) {
			batchIdx = append(batchIdx, i)
			shapes = append(shapes, p.W.Shape())
		}
	}
	if len(batchIdx) < 2 {
		jobs = make([]int, len(params))
		for i := range jobs {
			jobs[i] = i
		}
		return nil, nil, jobs
	}
	jobs = append(jobs, batchJob)
	inBatch := make(map[int]bool, len(batchIdx))
	for _, i := range batchIdx {
		inBatch[i] = true
	}
	for i := range params {
		if !inBatch[i] {
			jobs = append(jobs, i)
		}
	}
	return compress.NewTernaryBatch(shapes, c.Opts), batchIdx, jobs
}

// batchJob is the job-list sentinel for the coalesced tiny-tensor batch.
const batchJob = -1

// kernelBudget splits the node's goroutine budget between the two levels
// of fan-out: the per-tensor pool takes min(par, tensors) workers and
// each tensor's kernels get the remainder, so the product stays ~par.
func (c Config) kernelBudget(tensors int) int {
	par := c.parallelism()
	pool := par
	if tensors > 0 && tensors < pool {
		pool = tensors
	}
	b := par / pool
	if b < 1 {
		b = 1
	}
	return b
}

// parallelism resolves the configured codec fan-out.
func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// spawnHook, when non-nil, is called once per goroutine parallelFor
// spawns — the scheduling test double for the caller-runs-too pool shape.
// Production code must leave it nil.
var spawnHook func()

// parallelFor runs fn(i) for i in [0, n) on up to `workers` goroutines — a
// bounded pool fed by an atomic counter, so uneven per-tensor costs (one
// conv layer dwarfing the biases) balance dynamically. workers <= 1 runs
// serially on the caller's goroutine with zero spawns; otherwise workers-1
// goroutines are spawned and the caller joins the pool itself instead of
// idling in Wait.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(workers - 1)
	for g := 0; g < workers-1; g++ {
		if spawnHook != nil {
			spawnHook()
		}
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
}

// shouldCompress applies the paper's small-tensor exemption rule; both
// endpoints use it so wire formats always agree.
func (c Config) shouldCompress(p *nn.Param) bool {
	if c.Scheme == compress.SchemeNone {
		return false
	}
	if p.NoCompress {
		return false
	}
	return p.W.Len() >= c.MinCompressElems
}

// newContext builds the compression context for one of `tensors` model
// tensors on this node.
func (c Config) newContext(p *nn.Param, seed uint64, tensors int) compress.Compressor {
	if !c.shouldCompress(p) {
		return compress.New(compress.SchemeNone, p.W.Shape(), compress.Options{})
	}
	o := c.Opts
	o.Seed ^= seed
	if o.CodecParallelism == 0 {
		// Split the node's goroutine budget across the per-tensor pool and
		// each context's fused kernels (kernelBudget). Below the
		// per-context cap the scheduling is work-proportional
		// (kernel.PassWorkers): each of the two fused compress passes sizes
		// its own fan-out to the elements it sweeps, so the cap set here
		// is a ceiling, not a fixed spawn count. A single-tensor model
		// gets full chunk parallelism; a many-tensor model gets serial
		// kernels under a wide pool; Parallelism=1 means fully serial
		// everywhere.
		o.CodecParallelism = c.kernelBudget(tensors)
	}
	return compress.New(c.Scheme, p.W.Shape(), o)
}

// Job owns ALL of one training job's server-side state: the global
// model, the optimizer (momentum, schedule step), the pull-side
// compression contexts with their error-accumulation buffers, the
// gradient aggregation buffers, and the step/push counters. A Job holds
// no shared machinery — shards, queues, transports, and schedulers live
// elsewhere and treat a Job as a value in a job table (ps.Service,
// package shard) keyed by tenant, which is what lets many independent
// jobs multiplex over one shard tier.
type Job struct {
	Model *nn.Model

	cfg       Config
	optimizer *opt.SGD
	params    []*nn.Param
	pullCtx   []compress.Compressor
	gradSum   []*tensor.Tensor
	delta     []*tensor.Tensor
	decode    []*tensor.Tensor          // staged-reference decode scratch (StagedAggregate only)
	pullWires [][]byte                  // per-tensor pull wire buffers, recycled across steps
	errs      []error                   // per-tensor error slots for parallel decode, recycled
	decPar    int                       // per-tensor kernel fan-out for fused decode-add
	dirty     []bool                    // per-tensor: gradSum holds this step's data (fused path)
	preAcc    []compress.PreAccumulator // pull contexts with a fusable accumulate pass (nil slots otherwise)
	accMax    []float32                 // per-tensor max|acc| from the fused optimizer sweep
	pushes    int

	// Small-tensor batching (Config.SmallTensorElems): tiny 3LC pull
	// contexts coalesced over one arena, run as a single pool job.
	batch    *compress.TernaryBatch
	batchIdx []int     // model indices of batch members, in member order
	jobs     []int     // pool job list: model index, or batchJob sentinel
	batchMax []float32 // argument slot: accMax gathered in member order

	// Bound once at construction so the parallelFor call sites pass a
	// stored func value instead of a closure literal — closure allocation
	// is the last per-step heap traffic on an otherwise zero-alloc path.
	addPushFn    func(i int)
	pullPackFn   func(i int)
	accForFn     func(i int) []float32
	gradForFn    func(i int) ([]float32, float32)
	inv          float32  // averaging scale of the step being finished
	pushWorkerID int      // argument slot for addPushFn
	pushSrc      [][]byte // argument slot for addPushFn

	// Per-worker push sessions, recycled across steps so BeginPush stays
	// allocation-free in steady state (grown on first contact with a
	// worker id, never during a step's hot path).
	sessions []pushSession
}

// NewJob wraps the global model of one training job. The model's current
// parameters become the initial global state.
func NewJob(model *nn.Model, cfg Config) *Job {
	s := newJob(model.Params(), nil, cfg)
	s.Model = model
	return s
}

// NewSubJob builds a job over a subset of a model's parameters — one
// shard of a horizontally partitioned parameter-server tier (package
// shard). globalIdx[i] is the index params[i] has in the full model's
// parameter list; compression contexts are seeded by that global index, so
// the union of all shards' pull wires is byte-identical to what a single
// NewJob over the whole model would produce. The optimizer is applied
// per shard; because SGD state (velocity, schedule step) has no
// cross-tensor coupling, the per-shard updates equal the single-server
// ones exactly. Model is nil on a sub-job.
func NewSubJob(params []*nn.Param, globalIdx []int, cfg Config) *Job {
	if len(globalIdx) != len(params) {
		panic(fmt.Sprintf("ps: %d params but %d global indices", len(params), len(globalIdx)))
	}
	return newJob(params, globalIdx, cfg)
}

// newJob is the shared constructor: globalIdx == nil means the identity
// mapping (full-model job).
func newJob(params []*nn.Param, globalIdx []int, cfg Config) *Job {
	s := &Job{
		cfg:       cfg,
		optimizer: opt.NewSGD(cfg.Optimizer),
		params:    params,
	}
	s.batch, s.batchIdx, s.jobs = cfg.buildBatch(params)
	member := 0
	for i, p := range params {
		gi := i
		if globalIdx != nil {
			gi = globalIdx[i]
		}
		if member < len(s.batchIdx) && s.batchIdx[member] == i {
			// Batched tiny tensor: the context is the batch's member, so
			// per-tensor decode, checkpointing (state.go walks pullCtx),
			// and any direct CompressInto work unchanged — only the
			// pull-pack job routes through the coalesced encode.
			s.pullCtx = append(s.pullCtx, s.batch.Member(member))
			member++
		} else {
			s.pullCtx = append(s.pullCtx, cfg.newContext(p, 0x5345525645520000+uint64(gi), len(s.params))) // "SERVER"
		}
		s.gradSum = append(s.gradSum, tensor.New(p.W.Shape()...))
		s.delta = append(s.delta, tensor.New(p.W.Shape()...))
		if cfg.StagedAggregate {
			// The fused decode-accumulate needs no per-tensor decode
			// scratch; only the staged reference path does.
			s.decode = append(s.decode, tensor.New(p.W.Shape()...))
		}
	}
	s.batchMax = make([]float32, len(s.batchIdx))
	s.decPar = cfg.kernelBudget(len(s.params))
	s.dirty = make([]bool, len(s.params))
	s.pullWires = make([][]byte, len(s.params))
	s.errs = make([]error, len(s.params))
	s.preAcc = make([]compress.PreAccumulator, len(s.params))
	s.accMax = make([]float32, len(s.params))
	for i, ctx := range s.pullCtx {
		if pa, ok := ctx.(compress.PreAccumulator); ok {
			s.preAcc[i] = pa
		}
	}
	s.addPushFn = s.addPushJob
	s.pullPackFn = s.pullPackJob
	s.accForFn = s.accBufFor
	s.gradForFn = s.gradBufFor
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	s.sessions = make([]pushSession, workers)
	for i := range s.sessions {
		s.sessions[i].j = s
	}
	return s
}

// gradBufFor hands the optimizer tensor i's raw gradient sum plus the
// averaging scale to fuse into the read — 1 for the batch-norm tensors a
// single designated worker owns (and 1 is the float32 multiplicative
// identity, so the fused multiply equals the staged straight copy
// whenever only one push was accepted).
func (s *Job) gradBufFor(i int) ([]float32, float32) {
	if s.params[i].NoCompress {
		return s.gradSum[i].Data(), 1
	}
	return s.gradSum[i].Data(), s.inv
}

// accBufFor hands the optimizer the pull context's error-accumulation
// buffer for tensors whose compress pass 1 can absorb the delta write
// (compress.PreAccumulator); nil keeps the materialized-delta path. The
// staged reference configuration keeps every pass separate.
func (s *Job) accBufFor(i int) []float32 {
	if s.cfg.StagedAggregate || s.preAcc[i] == nil {
		return nil
	}
	return s.preAcc[i].AccData()
}

// BeginStep resets gradient aggregation for a new training step. The
// fused path resets per-tensor dirty flags instead of sweeping the sum
// buffers to zero: each tensor's first accumulation of the step goes
// through DecompressFirstAddInto, which writes over the stale buffer where
// that is bit-safe (ternary wires decode over it, raw float wires are
// added to +0 in registers) and zeroes it just-in-time otherwise. The
// staged reference keeps the explicit zeroing sweep.
func (s *Job) BeginStep() {
	if s.cfg.StagedAggregate {
		for _, g := range s.gradSum {
			g.Zero()
		}
	} else {
		for i := range s.dirty {
			s.dirty[i] = false
		}
	}
	s.pushes = 0
}

// AddPush decode-accumulates one worker's whole-set gradient push and
// completes it — BeginPush, Set, End in one call, and the push method of
// transport.StepServer. It returns the decompression wall time.
func (s *Job) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	d, err := s.ingestSet(workerID, wires)
	if err != nil {
		return 0, err
	}
	s.pushes++
	return d, nil
}

// ingestSet decode-accumulates one worker's whole-set push, fanning out
// across layer tensors (each tensor owns its gradient-sum buffer, so
// per-tensor parallelism is safe). Each tensor runs the fused
// decode-accumulate — one LUT-driven pass that adds M·q straight into the
// aggregation buffer, no intermediate decode tensor — unless
// Config.StagedAggregate selects the staged decode-then-add reference.
// NoCompress tensors (batch norm) are taken from worker 0 only. It does
// NOT advance the push count — that is the session End (or AddPush).
func (s *Job) ingestSet(workerID int, wires [][]byte) (time.Duration, error) {
	if len(wires) != len(s.params) {
		return 0, fmt.Errorf("ps: push has %d tensors, model has %d", len(wires), len(s.params))
	}
	start := time.Now()
	s.pushWorkerID, s.pushSrc = workerID, wires
	parallelFor(len(s.jobs), s.cfg.parallelism(), s.addPushFn)
	s.pushSrc = nil
	for _, err := range s.errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// addPushJob runs pool job j of the push staged in pushWorkerID/pushSrc:
// one tensor, or — for the batch job — every batched tiny tensor back to
// back on this goroutine (their individual decodes cost less than a pool
// hand-off; per-tensor decode-add semantics are unchanged, so the
// aggregate stays bit-identical to unbatched).
func (s *Job) addPushJob(j int) {
	i := s.jobs[j]
	if i != batchJob {
		s.addPushOne(i)
		return
	}
	for _, bi := range s.batchIdx {
		s.addPushOne(bi)
	}
}

// addPushOne decode-accumulates tensor i of the push staged in
// pushWorkerID/pushSrc.
func (s *Job) addPushOne(i int) {
	p := s.params[i]
	s.errs[i] = nil
	if p.NoCompress && s.pushWorkerID != 0 {
		return
	}
	if err := s.decodeAdd(i, s.pushSrc[i]); err != nil {
		s.errs[i] = fmt.Errorf("ps: push tensor %q: %w", p.Name, err)
	}
}

// decodeAdd accumulates one wire into gradSum[i]: the fused single-pass
// registry path by default, the staged decode-then-add reference under
// StagedAggregate. Both leave the accumulator bit-identical; a malformed
// wire leaves it untouched either way.
//
// The fused path skips zero runs instead of adding m·0 through them,
// which equals the dense add bit for bit as long as the sum holds no −0
// (compress.DecompressAddInto). gradSum never does: a step's first
// accumulation is either a set of M·q with M > 0, whose values are −M, +0
// and +M, or +0 + x per element (a zero followed by an add, or the raw
// first add that forms the same sum in registers), which is −0 for no x;
// from there a round-to-nearest add yields −0 only from (−0) + (−0) — x + (−x)
// is +0 and float addition never underflows to a signed zero. The region
// tier's sums are built the same way. (A worker weight, the other
// decode-add destination, can only keep a −0 it was initialised or
// restored with, until its first non-zero update, and stays ==-equal to
// the dense result throughout.)
func (s *Job) decodeAdd(i int, wire []byte) error {
	if s.cfg.StagedAggregate {
		if err := compress.DecompressInto(wire, s.decode[i]); err != nil {
			return err
		}
		s.gradSum[i].Add(s.decode[i])
		return nil
	}
	if !s.dirty[i] {
		s.dirty[i] = true
		return compress.DecompressFirstAddInto(wire, s.gradSum[i], s.decPar)
	}
	return compress.DecompressAddInto(wire, s.gradSum[i], s.decPar)
}

// ingestTensor decode-accumulates a single tensor of workerID's push —
// the per-tensor ingestion path behind the overlapped push/aggregate
// pipeline: a driver can feed each tensor the moment its wire is
// available (a transport frame landing, a compressor finishing) instead
// of staging the worker's full wire set. Different tensors may be
// ingested concurrently; pushes of the SAME tensor must arrive in worker
// order — per-tensor accumulation order is what keeps the aggregate
// byte-identical to the serial whole-set driver. After a worker's last
// tensor, the session End must run exactly once.
func (s *Job) ingestTensor(workerID, i int, wire []byte) error {
	if i < 0 || i >= len(s.params) {
		return fmt.Errorf("ps: push tensor index %d out of range (model has %d tensors)", i, len(s.params))
	}
	p := s.params[i]
	if p.NoCompress && workerID != 0 {
		return nil
	}
	if err := s.decodeAdd(i, wire); err != nil {
		return fmt.Errorf("ps: push tensor %q: %w", p.Name, err)
	}
	return nil
}

// NumTensors returns the number of model tensors this server owns — the
// tensor count a per-tensor push must cover (transports use it to verify
// stream completeness).
func (s *Job) NumTensors() int {
	return len(s.params)
}

// endPush advances the push count FinishStep's averaging divides by.
func (s *Job) endPush() {
	s.pushes++
}

// FinishStep averages the aggregated gradients, applies the optimizer to
// the global model, and returns the compressed model-delta wires shared by
// all workers, plus the server-side codec wall time. The wire slices are
// backed by server-owned buffers recycled across steps: they are valid
// until the next FinishStep, and callers that keep them longer (stale
// synchronous emulation) must copy the bytes.
func (s *Job) FinishStep() ([][]byte, time.Duration, error) {
	if s.pushes == 0 {
		return nil, 0, fmt.Errorf("ps: FinishStep with no pushes")
	}
	s.inv = 1 / float32(s.pushes)
	if s.cfg.StagedAggregate {
		// Staged reference: materialize the averaged gradient in p.G, run
		// the optimizer against it, materialize delta tensors, and let the
		// pull contexts run their own accumulate pass.
		for i, p := range s.params {
			if p.NoCompress {
				// Single designated owner: gradient used as-is.
				p.G.CopyFrom(s.gradSum[i])
				continue
			}
			s.gradSum[i].Scale(s.inv)
			p.G.CopyFrom(s.gradSum[i])
		}
		s.optimizer.ApplyWithDelta(s.params, s.delta)
	} else {
		for i := range s.params {
			if !s.dirty[i] {
				// Defensive: a tensor that received no push this step must
				// average as zero even though the fused path skipped the
				// up-front zeroing sweep. (Every driver pushes every
				// tensor — worker 0 is never dropped — so this is
				// unreachable in practice.)
				s.gradSum[i].Zero()
			}
		}
		// One fused sweep per tensor: average (scale fused into the read),
		// momentum update, delta, and — for 3LC pull contexts — the
		// delta fold into the compressor's error-accumulation buffer with
		// its |max| reduction. Bit-identical to the staged average →
		// Apply → delta = W - prevW → AccumulateMaxAbs sequence; the
		// averaged gradient is not materialized (p.G is untouched).
		s.optimizer.ApplyFusedStep(s.params, s.gradForFn, s.delta, s.accForFn, s.accMax)
	}

	// Shared pull compression: one wire per tensor for all workers, built
	// once into recycled per-tensor buffers (§3, Figure 2b) by the bounded
	// worker pool. The returned slices are valid until the next FinishStep
	// call; callers that retain pulls across steps must copy them.
	start := time.Now()
	parallelFor(len(s.jobs), s.cfg.parallelism(), s.pullPackFn)
	return s.pullWires, time.Since(start), nil
}

// pullPackJob runs pull-compression pool job j: one tensor, or — for the
// batch job — the coalesced encode of every batched tiny tensor. The
// fused optimizer sweep already folded each member's delta into the
// shared arena (members' AccData slices tile it) and reduced accMax, so
// the batch runs encode-only, one contiguous sweep emitting every
// member's wire into the shared wire arena.
func (s *Job) pullPackJob(j int) {
	i := s.jobs[j]
	if i != batchJob {
		s.pullPackOne(i)
		return
	}
	for k, bi := range s.batchIdx {
		s.batchMax[k] = s.accMax[bi]
	}
	wires := s.batch.EncodePreAccumulated(s.batchMax)
	for k, bi := range s.batchIdx {
		s.pullWires[bi] = wires[k]
	}
}

// pullPackOne compresses model-delta tensor i into its recycled buffer:
// encode-only for contexts whose accumulate pass the optimizer sweep
// already absorbed, the full CompressInto otherwise.
func (s *Job) pullPackOne(i int) {
	if pa := s.preAcc[i]; pa != nil && !s.cfg.StagedAggregate {
		s.pullWires[i] = pa.CompressPreAccumulated(s.accMax[i], s.pullWires[i][:0])
		return
	}
	s.pullWires[i] = s.pullCtx[i].CompressInto(s.delta[i], s.pullWires[i][:0])
}

// Step returns the number of optimizer updates applied.
func (s *Job) Step() int { return s.optimizer.Step() }

// LR returns the learning rate the optimizer will use at its current step.
func (s *Job) LR() float64 { return s.optimizer.LR(s.optimizer.Step()) }

// Worker is one training node: a local model replica plus push-side
// compression contexts.
type Worker struct {
	ID    int
	Model *nn.Model

	cfg       Config
	params    []*nn.Param
	pushCtx   []compress.Compressor
	scratch   []*tensor.Tensor // staged-reference decode scratch (StagedAggregate only)
	pushWires [][]byte         // per-tensor push wire buffers, recycled across steps
	errs      []error          // per-tensor error slots for parallel decode, recycled
	decPar    int              // per-tensor kernel fan-out for fused decode-add

	// Small-tensor batching, mirroring Server: tiny 3LC push contexts
	// coalesced over one arena, run as a single pool job.
	batch    *compress.TernaryBatch
	batchIdx []int
	jobs     []int

	// Bound method values + argument slots, mirroring Server (see there).
	compressFn   func(j int)
	applyFn      func(j int)
	batchGradFn  func(k int) []float32
	pullSrc      [][]byte
	streamEmitFn func(i int, wire []byte) // argument slot for CompressGradsStream
	streamFn     func(j int)
}

// NewWorker wraps a local model replica (which must start identical to the
// server's global model).
func NewWorker(id int, model *nn.Model, cfg Config) *Worker {
	w := &Worker{ID: id, Model: model, cfg: cfg, params: model.Params()}
	w.batch, w.batchIdx, w.jobs = cfg.buildBatch(w.params)
	member := 0
	for i, p := range w.params {
		if member < len(w.batchIdx) && w.batchIdx[member] == i {
			w.pushCtx = append(w.pushCtx, w.batch.Member(member))
			member++
		} else {
			w.pushCtx = append(w.pushCtx, cfg.newContext(p, 0x574f524b00000000+uint64(id)<<16+uint64(i), len(w.params))) // "WORK"
		}
		if cfg.StagedAggregate {
			w.scratch = append(w.scratch, tensor.New(p.W.Shape()...))
		}
	}
	w.decPar = cfg.kernelBudget(len(w.params))
	w.pushWires = make([][]byte, len(w.params))
	w.errs = make([]error, len(w.params))
	w.compressFn = w.compressJob
	w.applyFn = w.applyJob
	w.batchGradFn = w.batchGrad
	w.streamFn = w.streamJob
	return w
}

// CompressGrads compresses the gradients currently held in the local
// model's parameter tensors (set by Model.TrainStep) and returns the push
// wires plus the compression wall time. Layer tensors are compressed
// concurrently by a bounded worker pool (each tensor has its own context,
// so ordering never affects the bytes). The wire slices are backed by
// worker-owned buffers recycled across steps: they are valid until the
// next CompressGrads call on this worker.
func (w *Worker) CompressGrads() ([][]byte, time.Duration) {
	start := time.Now()
	parallelFor(len(w.jobs), w.cfg.parallelism(), w.compressFn)
	return w.pushWires, time.Since(start)
}

// compressJob runs compression pool job j: one tensor, or — for the
// batch job — the coalesced CompressAll over every batched tiny tensor
// (one arena-order sweep of their error state, one shared wire arena, no
// per-tensor dispatch).
func (w *Worker) compressJob(j int) {
	i := w.jobs[j]
	if i != batchJob {
		w.compressOne(i)
		return
	}
	wires := w.batch.CompressAll(w.batchGradFn)
	for k, bi := range w.batchIdx {
		w.pushWires[bi] = wires[k]
	}
}

// batchGrad hands CompressAll batch member k's gradient data.
func (w *Worker) batchGrad(k int) []float32 {
	return w.params[w.batchIdx[k]].G.Data()
}

// compressOne compresses gradient tensor i into its recycled buffer.
func (w *Worker) compressOne(i int) {
	w.pushWires[i] = w.pushCtx[i].CompressInto(w.params[i].G, w.pushWires[i][:0])
}

// CompressGradsStream compresses exactly like CompressGrads but hands
// each tensor's wire to emit the moment it is encoded, so a driver can
// push tensor i — frame it, enqueue it, start server-side decode-add —
// while tensor i+1 is still compressing: the worker half of the
// overlapped push/aggregate pipeline. emit may be invoked concurrently
// from the codec pool's goroutines (tensors finish in arbitrary order;
// the index identifies the slot) and must not retain the wire past the
// next CompressGrads* call. The returned full wire set and duration match
// CompressGrads.
func (w *Worker) CompressGradsStream(emit func(i int, wire []byte)) ([][]byte, time.Duration) {
	start := time.Now()
	w.streamEmitFn = emit
	parallelFor(len(w.jobs), w.cfg.parallelism(), w.streamFn)
	w.streamEmitFn = nil
	return w.pushWires, time.Since(start)
}

// streamJob is compressJob plus per-tensor emission: batched tiny
// tensors are emitted member by member the moment the coalesced encode
// finishes (their wires materialize together, so there is nothing
// earlier to overlap with).
func (w *Worker) streamJob(j int) {
	i := w.jobs[j]
	if i != batchJob {
		w.compressOne(i)
		w.streamEmitFn(i, w.pushWires[i])
		return
	}
	wires := w.batch.CompressAll(w.batchGradFn)
	for k, bi := range w.batchIdx {
		w.pushWires[bi] = wires[k]
		w.streamEmitFn(bi, wires[k])
	}
}

// ApplyPull decompresses the shared model-delta wires and applies them to
// the local replica, fanning out across layer tensors. It returns the
// decompression wall time.
func (w *Worker) ApplyPull(wires [][]byte) (time.Duration, error) {
	if len(wires) != len(w.params) {
		return 0, fmt.Errorf("ps: pull has %d tensors, model has %d", len(wires), len(w.params))
	}
	start := time.Now()
	w.pullSrc = wires
	parallelFor(len(w.jobs), w.cfg.parallelism(), w.applyFn)
	w.pullSrc = nil
	for _, err := range w.errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// applyJob runs pull-apply pool job j: one tensor, or every batched tiny
// tensor back to back (per-tensor decode-add semantics unchanged).
func (w *Worker) applyJob(j int) {
	i := w.jobs[j]
	if i != batchJob {
		w.applyOne(i)
		return
	}
	for _, bi := range w.batchIdx {
		w.applyOne(bi)
	}
}

// applyOne decode-applies pull tensor i of the staged wire set to the
// replica: the fused decode-accumulate adds M·q straight into the weight
// tensor in one pass (the staged decode-then-add under StagedAggregate).
func (w *Worker) applyOne(i int) {
	w.errs[i] = w.applyTensor(i, w.pullSrc[i])
}

// applyTensor decode-applies one pull wire into weight tensor i.
func (w *Worker) applyTensor(i int, wire []byte) error {
	p := w.params[i]
	if w.cfg.StagedAggregate {
		if err := compress.DecompressInto(wire, w.scratch[i]); err != nil {
			return fmt.Errorf("ps: pull tensor %q: %w", p.Name, err)
		}
		p.W.Add(w.scratch[i])
		return nil
	}
	if err := compress.DecompressAddInto(wire, p.W, w.decPar); err != nil {
		return fmt.Errorf("ps: pull tensor %q: %w", p.Name, err)
	}
	return nil
}

// ApplyPullTensor decode-applies a single tensor of the shared pull — the
// worker-side counterpart of PushSession.Tensor, for transports that
// stream per-tensor pull frames: the replica applies tensor i, straight
// from the transport's receive scratch (wire need only stay valid for the
// call), while tensor i+1 is still in flight or waiting in the socket's
// buffer. Different tensors may be applied concurrently.
func (w *Worker) ApplyPullTensor(i int, wire []byte) error {
	if i < 0 || i >= len(w.params) {
		return fmt.Errorf("ps: pull tensor index %d out of range (model has %d tensors)", i, len(w.params))
	}
	return w.applyTensor(i, wire)
}

// WireBytes sums the byte sizes of a wire set.
func WireBytes(wires [][]byte) int {
	n := 0
	for _, w := range wires {
		n += len(w)
	}
	return n
}
