package ps

import (
	"fmt"
	"time"

	"threelc/internal/compress"
	"threelc/internal/kernel"
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
	// compression (they go as lossless float32). The paper exempts small
	// layers because "avoiding computation overhead far outweighs
	// compacting already small tensors".
	MinCompressElems int
	// Parallelism is ignored: a node's codec work runs on the calling
	// goroutine, one tensor after another.
	Parallelism int
	// Optimizer configures the server-side SGD.
	Optimizer opt.SGDConfig
}

// Compresses is the paper's small-tensor exemption (§5.1), the one
// definition of which tensors skip the codec: a tensor goes through it
// unless the design is float32, the tensor is flagged NoCompress (batch
// norm) or it has fewer than MinCompressElems elements. Both endpoints and
// the traffic accounting ask it, so wire formats always agree; what an
// exempt tensor travels as instead — lossless float32 either way — is
// compress.NewExempt's to say.
func (c Config) Compresses(p *nn.Param) bool {
	return c.Scheme != compress.SchemeNone && !p.NoCompress && p.W.Len() >= c.MinCompressElems
}

// newContext builds the compression context for one model tensor on this
// node.
func (c Config) newContext(p *nn.Param, seed uint64) compress.Compressor {
	if !c.Compresses(p) {
		return compress.NewExempt(c.Scheme, p.W.Shape())
	}
	o := c.Opts
	o.Seed ^= seed
	return compress.New(c.Scheme, p.W.Shape(), o)
}

// Job owns ALL of one training job's server-side state: the global
// model, the optimizer (momentum, schedule step), the pull-side
// compression contexts with their error-accumulation buffers, and the
// step/push counters. A Job holds no shared machinery — transports and
// the shard servers live elsewhere and hold one Job per shard
// (shard.SubServers).
//
// A step's gradient sums live in the served parameters' G tensors, read
// and written under the stamps of the job's kernel.Blocks records: a block
// no push reached this step holds stale values and reads as +0.
// A model that serves a Job therefore cannot also be a worker's replica:
// its G would be overwritten by the aggregation, and its W stepped twice.
// The sub-jobs of a sharded tier serve disjoint parameters of one global
// model, so their sums are disjoint too.
type Job struct {
	Model *nn.Model

	optimizer *opt.SGD
	params    []*nn.Param
	pullCtx   []compress.Compressor     // per tensor: the pull's compression context, nil where the job relays the owner's update
	blocks    []kernel.Blocks           // per tensor: which blocks of params[i].G, the gradient sum, this step's pushes reached, and the block maxima of the pull's error buffer
	delta     []*tensor.Tensor          // per tensor: the model delta, where a lossy pull context without an accumulate pass takes one (nil elsewhere)
	pullWires [][]byte                  // per-tensor pull wires: recycled buffers, or a view of the sum (a float32 pull, gWire)
	ownerPull [][]byte                  // pullWires as the owner is sent them (OwnerPull), recycled
	pushed    []bool                    // per-tensor: a push reached it this step
	preAcc    []compress.PreAccumulator // pull contexts with a fusable accumulate pass (nil slots otherwise)
	raw       []compress.RawWriter      // pull contexts whose wire the optimizer sweep writes, over the sum where it can (nil slots otherwise)
	accMax    []float32                 // per-tensor max|acc| from the fused optimizer sweep
	pushes    int

	// Bound once at construction so FinishStep hands the optimizer a
	// stored func value instead of a method value, which allocates.
	stepForFn func(i int) ([]float32, float32, *kernel.Blocks, kernel.Sink)
	inv       float32 // averaging scale of the step being finished

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
		optimizer: opt.NewSGD(cfg.Optimizer),
		params:    params,
	}
	for i, p := range params {
		gi := i
		if globalIdx != nil {
			gi = globalIdx[i]
		}
		var ctx compress.Compressor // none for a tensor whose pull the job relays
		if !OwnerOnly(p) {
			ctx = cfg.newContext(p, 0x5345525645520000+uint64(gi)) // "SERVER"
		}
		s.pullCtx = append(s.pullCtx, ctx)
	}
	s.blocks = make([]kernel.Blocks, len(s.params))
	s.pushed = make([]bool, len(s.params))
	s.pullWires = make([][]byte, len(s.params))
	s.preAcc = make([]compress.PreAccumulator, len(s.params))
	s.raw = make([]compress.RawWriter, len(s.params))
	s.delta = make([]*tensor.Tensor, len(s.params))
	s.accMax = make([]float32, len(s.params))
	for i, ctx := range s.pullCtx {
		switch c := ctx.(type) {
		case nil:
		case compress.PreAccumulator:
			s.preAcc[i] = c
		case compress.RawWriter:
			s.raw[i] = c
		default:
			s.delta[i] = tensor.New(params[i].W.Shape()...)
		}
	}
	s.stepForFn = s.stepFor
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

// stepFor hands the optimizer sweep tensor i: its raw gradient sum — nil
// for an owner-only tensor, whose update the owner pushed and the job
// relays (ingestOne), so the sweep skips it; the averaging scale to fuse
// into the read; its record, whose stamps say which blocks of the sum are
// live; and where the model delta goes. That is the pull
// context's error-accumulation buffer where its compress pass 1 can absorb
// the write (compress.PreAccumulator: the record takes the block maxima
// the pull pack's encode consults); the pull wire's body where the wire is
// the raw delta (compress.RawWriter), and the pull pack has nothing left
// to do; the delta tensor the pull pack compresses otherwise.
//
// A raw pull wire is the sum's own memory (gWire): the sweep reads each
// element of the sum before it stores that element's delta over it
// (kernel.Blocks.SGDStep), and the sum is dead until the next push. Where
// G has no frame to put the scheme byte in, or the host's floats are not
// their wire bytes, the context appends the wire to a buffer of the job's.
func (s *Job) stepFor(i int) ([]float32, float32, *kernel.Blocks, kernel.Sink) {
	p := s.params[i]
	if OwnerOnly(p) {
		return nil, 0, nil, kernel.Sink{}
	}
	var to kernel.Sink
	switch {
	case s.preAcc[i] != nil:
		to.Acc = s.preAcc[i].AccData()
	case s.raw[i] != nil:
		if wire := gWire(p); wire != nil {
			s.pullWires[i], to.Raw = wire, wire[1:]
		} else {
			s.pullWires[i], to.Raw = s.raw[i].RawWire(s.pullWires[i][:0])
		}
	default:
		to.Delta = s.delta[i].Data()
	}
	return p.G.Data(), s.inv, &s.blocks[i], to
}

// gWire is the float32 wire over p's G, the one place a node decides
// whether a raw wire copies: the scheme byte in the last byte of the
// headroom in front of G, then G's own bytes (nn.Param.GFrame,
// compress.RawWireOver). It is nil where G is not that memory or the
// host's floats are not their wire bytes; the caller then keeps its
// copying context. A worker's float32 push is its G this way (NewWorker),
// and a job's float32 pull the sum the sweep has just read (stepFor).
func gWire(p *nn.Param) []byte {
	return compress.RawWireOver(p.GFrame(), p.G.Len())
}

// BeginStep resets gradient aggregation for a new training step without
// a sweep over the sums: it kills every block of every sum in O(1)
// (kernel.Blocks.Reset), and a dead block reads as +0 whatever its
// memory holds. A push's decode-add clears a block only when the first of
// its literal groups lands there (decodeAdd), a dense wire clears what is
// still dead or, into an empty sum, adds to +0 in registers, and the
// optimizer sweep reads a shared zero block in place of every block no
// push reached. Measured over one 5-second benchmark run (two workers,
// seed 1), 3.6 % of the 1 280-element blocks of lan-3lc's sums are live a
// step, 3.2 % of wan-3lc's and 97 % of tiny-stream's.
func (s *Job) BeginStep() {
	for i := range s.blocks {
		s.blocks[i].Reset()
		s.pushed[i] = false
	}
	s.pushes = 0
}

// AddPush decode-accumulates one worker's whole-set gradient push and
// completes it — BeginPush, Set, End in one call, and the push method of
// transport.StepServer. It returns the decompression wall time. The
// wires need stay valid only during the call: what the job keeps of them,
// an owner's relayed update, it copies (ingestOne). The first push of a
// step ends the last step's float32 pull (FinishStep).
//
//3lc:noalloc
func (s *Job) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	d, err := s.ingestSet(workerID, wires)
	if err != nil {
		return 0, err
	}
	s.pushes++
	return d, nil
}

// ingestSet decode-accumulates one worker's whole-set push, tensor by
// tensor in index order (ingestOne). Each tensor runs the fused
// decode-accumulate — one LUT-driven pass that adds M·q straight into the
// aggregation buffer, no intermediate decode tensor. An owner-only tensor
// (batch norm) is taken from its owner; every other worker's slot for it
// must hold the empty wire (Pushes). The first tensor that fails stops the
// push: its error is returned, and later tensors are not read. It does NOT
// advance the push count — that is the session End (or AddPush).
//
//3lc:noalloc
func (s *Job) ingestSet(workerID int, wires [][]byte) (time.Duration, error) {
	if len(wires) != len(s.params) {
		return 0, fmt.Errorf("ps: push has %d tensors, model has %d (incomplete push, or another model's)", len(wires), len(s.params))
	}
	start := time.Now()
	for i, wire := range wires {
		if err := s.ingestOne(workerID, i, wire); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// ingestOne is what either ingestion path does with workerID's wire for
// tensor i: decode-accumulate it, or — for a tensor workerID does not push —
// hold it to the empty wire. The owner's wire of an owner-only tensor is
// its update, which the job relays: it is decoded into the tensor's sum
// all the same, which nothing else reads, so a malformed update is refused
// here as any push is, and then copied to be the tensor's pull, which
// FinishStep adds to the global model. The empty wire there is refused
// too: relayed, it would be a pull slot every other worker refuses.
func (s *Job) ingestOne(workerID, i int, wire []byte) error {
	p := s.params[i]
	switch {
	case !Pushes(workerID, p):
		return RefuseUnpushed(workerID, p, wire)
	case OwnerOnly(p) && len(wire) == 0:
		return fmt.Errorf("ps: push tensor %q: worker %d, its owner, sent the empty wire, not the update the job relays", p.Name, workerID)
	}
	if err := s.decodeAdd(i, wire); err != nil {
		return fmt.Errorf("ps: push tensor %q: %w", p.Name, err)
	}
	if OwnerOnly(p) {
		s.pullWires[i] = append(s.pullWires[i][:0], wire...)
	}
	return nil
}

// decodeAdd accumulates one wire into params[i].G, tensor i's gradient
// sum, through the fused single-pass registry path and the sum's liveness
// record (compress.DecompressAddLive); a malformed wire leaves what the
// sum reads as, and the record, untouched.
//
// The result is the dense reference's bit for bit: zero the sum, then
// DecompressAddInto every push. A dead block reads as +0, which is what
// the reference holds in a block no literal group reached. A block's first
// literal group of the step lands on memory just cleared to +0, so the
// block holds +0 + M·q, the reference's sum. The fused path skips zero
// runs instead of adding m·0 through them, which equals the dense add as
// long as the sum holds no −0 (compress.DecompressAddInto), and the sum
// never does: each element starts the step at +0 (a cleared block, a dead
// one, or the raw first add that forms +0 + x in registers), and a
// round-to-nearest add yields −0 only from (−0) + (−0) — +0 + (−0) is +0,
// x + (−x) is +0 and float addition never underflows to a signed zero. (A
// worker weight, the other decode-add destination, can only keep a −0 it
// was initialised or restored with, until its first non-zero update, and
// stays ==-equal to the dense result throughout.)
func (s *Job) decodeAdd(i int, wire []byte) error {
	s.pushed[i] = true
	return compress.DecompressAddLive(wire, s.params[i].G, &s.blocks[i])
}

// ingestTensor decode-accumulates a single tensor of workerID's push, the
// path behind PushSession.Tensor. It runs on the job's one driver
// goroutine (Tier), like every Job method; pushes of the SAME tensor must
// arrive in worker order — per-tensor accumulation order is what keeps the
// aggregate byte-identical to the whole-set driver (AddPush). After a
// worker's last tensor, the session End must run exactly once.
func (s *Job) ingestTensor(workerID, i int, wire []byte) error {
	if i < 0 || i >= len(s.params) {
		return fmt.Errorf("ps: push tensor index %d out of range (model has %d tensors)", i, len(s.params))
	}
	return s.ingestOne(workerID, i, wire)
}

// endPush advances the push count FinishStep's averaging divides by.
func (s *Job) endPush() {
	s.pushes++
}

// FinishStep averages the aggregated gradients, applies the optimizer to
// the global model, and returns the compressed model-delta wires shared by
// all workers — the owner is sent them less its owner-only slots
// (OwnerPull) — plus the server-side codec wall time. An owner-only
// tensor is not stepped: its update, the owner's push, is added to the
// global model as every worker adds it, and relayed. The wire slices are
// backed by the job's memory: a float32 pull wire is the tensor's gradient
// sum, which the sweep overwrote with the delta (stepFor), so it is valid
// until the next push reaches the job (AddPush, or a session's Set or
// Tensor); every other wire is a buffer recycled across steps, valid
// until the next FinishStep. Callers that keep a pull longer must copy
// the bytes.
//
//3lc:noalloc
func (s *Job) FinishStep() ([][]byte, time.Duration, error) {
	if s.pushes == 0 {
		return nil, 0, fmt.Errorf("ps: FinishStep with no pushes")
	}
	s.inv = 1 / float32(s.pushes)
	for i, pushed := range s.pushed {
		if !pushed {
			// Every tensor is pushed by at least its owner every step (no
			// driver drops worker 0), so a sum nobody wrote is a driver's
			// fault to report, not a zero gradient to step the momentum
			// with.
			return nil, 0, NoPush(s.params[i])
		}
	}
	// One fused sweep per tensor: average (scale fused into the read, dead
	// blocks read as +0), momentum update, delta, and the delta where the
	// pull takes it (stepFor) — folded into a 3LC compressor's
	// error-accumulation buffer with its |max| reduction, written as a raw
	// float32 pull wire's body, or stored for the other codecs.
	// Bit-identical to the staged average → Apply → delta = W - prevW →
	// AccumulateMaxAbs / CompressInto sequence
	// (TestFusedAggregateMatchesStaged); the averaged gradient is not
	// materialized (p.G keeps the raw sum).
	s.optimizer.ApplyFusedStep(s.params, s.stepForFn, s.accMax)

	// Shared pull compression: one wire per tensor for all workers, built
	// once into recycled per-tensor buffers (§3, Figure 2b), in index
	// order. The returned slices are valid as the doc above says; callers
	// that retain pulls across pushes must copy them.
	start := time.Now()
	for i := range s.params {
		if err := s.pullPackOne(i); err != nil {
			return nil, 0, err
		}
	}
	return s.pullWires, time.Since(start), nil
}

// pullPackOne compresses model-delta tensor i into its recycled buffer:
// encode-only for contexts whose accumulate pass the optimizer sweep
// already absorbed, nothing for a raw wire the sweep wrote, the full
// CompressInto otherwise. The pull of an owner-only tensor is the update
// its owner pushed (ingestOne), which is added to the global model here.
func (s *Job) pullPackOne(i int) error {
	switch {
	case OwnerOnly(s.params[i]):
		if err := compress.DecompressAddInto(s.pullWires[i], s.params[i].W, 0); err != nil {
			return fmt.Errorf("ps: relay tensor %q: %w", s.params[i].Name, err)
		}
	case s.preAcc[i] != nil:
		s.pullWires[i] = s.preAcc[i].CompressPreAccumulated(&s.blocks[i], s.accMax[i], s.pullWires[i][:0])
	case s.delta[i] != nil:
		s.pullWires[i] = s.pullCtx[i].CompressInto(s.delta[i], s.pullWires[i][:0])
	}
	return nil
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
	preAcc    []compress.PreAccumulator // per tensor: the 3LC push context whose error buffer is params[i].G, nil elsewhere
	raw       [][]byte                  // per tensor: the float32 push wire that is a view of params[i].G (gWire), nil elsewhere
	blocks    []kernel.Blocks           // per tensor: the block maxima preAcc's pass 1 records for its encode
	pushWires [][]byte                  // per-tensor push wire buffers, recycled across steps
	own       []*ownStep                // per tensor: the owner's optimizer state of an owner-only tensor (update), nil elsewhere
	sched     *opt.SGD                  // the learning-rate schedule, for own; never stepped
}

// NewWorker wraps a local model replica (which must start identical to the
// server's global model, and, on the owner, be configured with the
// server's optimizer: the owner steps the owner-only tensors itself).
//
// A tensor the design compresses with 3LC gets a push context whose error
// buffer is the replica's own G (compress.NewThreeLCOver), zeroed here, so
// the worker starts at e = 0 and keeps no second model-sized buffer: G
// carries the residual between steps (nn.Param.CarryGrad), backward adds
// the step's gradient into it, and compress pass 1 is the block maxima a
// Linear's backward records row by row as it writes G
// (nn.Param.RecordMax), or a read-only |max| where nothing recorded
// (compressOne). At a step boundary G holds the residual a context that
// owned its buffer would, bit for bit.
//
// Under float32 a tensor's push wire is a view of the replica's G in the
// same way: the headroom newParam allocates in front of G takes the scheme
// byte (nn.Param.GFrame, compress.RawWireOver), so the wire is G's own
// bytes and pushing it copies nothing. The owner's update of an owner-only
// tensor, a G built without that headroom and a host that is not
// little-endian keep the copying context.
func NewWorker(id int, model *nn.Model, cfg Config) *Worker {
	w := &Worker{ID: id, Model: model, cfg: cfg, params: model.Params(), sched: opt.NewSGD(cfg.Optimizer)}
	w.own = newOwnSteps(id, w.params)
	w.preAcc = make([]compress.PreAccumulator, len(w.params))
	w.raw = make([][]byte, len(w.params))
	w.blocks = make([]kernel.Blocks, len(w.params))
	for i, p := range w.params {
		var ctx compress.Compressor
		if cfg.Scheme == compress.SchemeThreeLC && cfg.Compresses(p) {
			ctx = compress.NewThreeLCOver(p.G, cfg.Opts)
			w.preAcc[i] = ctx.(compress.PreAccumulator)
			p.CarryGrad()
			p.RecordMax(&w.blocks[i])
		} else {
			ctx = cfg.newContext(p, 0x574f524b00000000+uint64(id)<<16+uint64(i)) // "WORK"
		}
		if cfg.Scheme == compress.SchemeNone && !OwnerOnly(p) {
			w.raw[i] = gWire(p)
		}
		w.pushCtx = append(w.pushCtx, ctx)
	}
	w.pushWires = make([][]byte, len(w.params))
	return w
}

// CompressGrads compresses the gradients currently held in the local
// model's parameter tensors (set by Model.TrainStep) and returns the push
// wires plus the compression wall time: CompressGradsStream with an emit
// that leaves each wire where the returned set gathers it.
func (w *Worker) CompressGrads() ([][]byte, time.Duration) {
	return w.CompressGradsStream(gathered)
}

// gathered is CompressGrads' emit: the wire is already in w.pushWires.
func gathered(int, []byte) {}

// compressOne compresses gradient tensor i into its recycled buffer, or
// leaves the empty wire there for a tensor this worker does not push: the
// aggregate never reads it (Pushes), so it does not cross the link. A 3LC
// tensor's G already holds e + g, and its pass 1 is what the backward that
// wrote G recorded (nn.Param.TakeMax) — or, where no fresh record exists (a
// layer that does not record, a G written since), a read-only sweep of
// max|G| and the block maxima; the encode leaves the residual in G. A float32
// tensor's wire is already G's bytes (NewWorker); a G replaced since
// panics here rather than push the old one's. On the owner, an
// owner-only tensor is stepped and its update compressed instead (update):
// its exempt context is lossless, so the server relays the update to the
// others as the owner computed it.
func (w *Worker) compressOne(i int) {
	p := w.params[i]
	if !Pushes(w.ID, p) {
		return
	}
	if pa := w.preAcc[i]; pa != nil {
		blk := &w.blocks[i]
		m, ok := p.TakeMax(blk)
		if !ok {
			m = blk.MaxAbs(p.G.Data())
		}
		w.pushWires[i] = pa.CompressPreAccumulated(blk, m, w.pushWires[i][:0])
		return
	}
	if wire := w.raw[i]; wire != nil {
		if g := kernel.RawView(p.G.Data()); len(g) != len(wire)-1 || &g[0] != &wire[1] {
			panic(fmt.Sprintf("ps: worker %d: the G of %q was replaced after NewWorker; its float32 push wire views the old one", w.ID, p.Name))
		}
		w.pushWires[i] = wire
		return
	}
	src := p.G
	if w.own[i] != nil {
		src = w.update(i)
	}
	w.pushWires[i] = w.pushCtx[i].CompressInto(src, w.pushWires[i][:0])
}

// CompressGradsStream compresses the gradients currently held in the
// local model's parameter tensors (set by Model.TrainStep), on the calling
// goroutine in index order, handing each tensor's wire to emit the moment
// it is encoded, so a driver can push tensor i — frame it, enqueue it,
// send it — before tensor i+1 is compressed: the worker half of the
// overlapped exchange. emit sees indices 0…n−1 in order, one call at a
// time. It returns the full wire set and the compression wall time. The
// wires are backed by worker-owned memory: a float32 tensor's wire is a
// view of its G (see NewWorker), valid until the replica's next ZeroGrad
// or backward pass writes G; every other wire is a buffer recycled across
// steps, valid until the next compress call on this worker. A caller holds
// a wire no longer than the step that made it.
//
//3lc:noalloc
func (w *Worker) CompressGradsStream(emit func(i int, wire []byte)) ([][]byte, time.Duration) {
	start := time.Now()
	for i := range w.params {
		w.compressOne(i)
		emit(i, w.pushWires[i])
	}
	return w.pushWires, time.Since(start)
}

// ApplyPull decompresses the model-delta wires the worker is sent (Pulls)
// and applies them to the local replica, tensor by tensor in index order
// (applyTensor): the fused decode-accumulate adds M·q straight into each
// weight tensor in one pass. The first tensor that fails stops the apply
// and its error is returned. It returns the decompression wall time.
//
//3lc:noalloc
func (w *Worker) ApplyPull(wires [][]byte) (time.Duration, error) {
	if len(wires) != len(w.params) {
		return 0, fmt.Errorf("ps: pull has %d tensors, model has %d", len(wires), len(w.params))
	}
	start := time.Now()
	for i, wire := range wires {
		if err := w.applyTensor(i, wire); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// applyTensor decode-applies one pull wire into weight tensor i. On the
// owner, the slot of a tensor it is not sent is its own update (applyOwn); to
// any other worker an owner-only slot that is empty is refused by tensor
// and worker, the mirror of RefuseUnpushed: it never means "keep the stale
// weights".
func (w *Worker) applyTensor(i int, wire []byte) error {
	p := w.params[i]
	var err error
	switch {
	case w.own[i] != nil:
		err = w.applyOwn(i, wire)
	case len(wire) == 0 && OwnerOnly(p):
		err = fmt.Errorf("worker %d was sent the empty wire, which only worker %d, the owner, is sent", w.ID, Owner)
	default:
		err = compress.DecompressAddInto(wire, p.W, 0)
	}
	if err != nil {
		return fmt.Errorf("ps: pull tensor %q: %w", p.Name, err)
	}
	return nil
}

// ApplyPullTensor decode-applies a single tensor of the pull — the
// worker-side counterpart of PushSession.Tensor, for a transport that
// hands the pull over tensor by tensor (transport.ShardClient's
// PushPullStream: wire need only stay valid for the call). Different
// tensors may be applied concurrently.
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
