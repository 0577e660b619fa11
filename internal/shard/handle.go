// The runtime tier: one job's tensors spread over Config.Shards executors.
// Each shard is a goroutine draining one bounded request queue in FIFO
// order into the ps sub-job that owns the shard's tensors; the JobHandle
// is the driver that splits each step's traffic across those queues.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
)

// NewCluster builds a sharded tier over model and returns its driver,
// which owns the tier — Close stops it. The placement is the size-balanced
// packing of the model's tensors (by byte size) across cfg.Shards shards;
// psCfg configures each shard's codec and optimizer exactly as it would a
// single ps.Job.
func NewCluster(model *nn.Model, psCfg ps.Config, cfg Config) (*JobHandle, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	params := model.Params()
	asn := ForModel(model, cfg.Shards)
	h := &JobHandle{
		asn:   asn,
		param: len(params),
		idxs:  make([][]int, cfg.Shards),
		local: make([]int, len(params)),
		pull:  make([][]byte, len(params)),
		dones: make([]chan result, cfg.Shards),
	}
	for sh := 0; sh < cfg.Shards; sh++ {
		idx := asn.Tensors(sh)
		h.idxs[sh] = idx
		sub := make([]*nn.Param, len(idx))
		for k, gi := range idx {
			h.local[gi] = k
			sub[k] = params[gi]
		}
		h.dones[sh] = make(chan result, 1)
		n := &snode{
			id:   sh,
			job:  ps.NewSubJob(sub, idx, psCfg),
			reqs: make(chan request, queueDepth),
		}
		n.subs.New = func() any {
			b := make([][]byte, len(idx))
			return &b
		}
		h.nodes = append(h.nodes, n)
		go n.run()
	}
	// The per-kind request builders are allocated once here: broadcast
	// closures created per step would put four heap allocations on the
	// steady-state path. They read the handle's current step/worker/wires
	// fields, which the (single-threaded) driver sets before broadcasting.
	h.mkBegin = func(sh int) request { return request{kind: reqBegin, step: h.step} }
	h.mkEnd = func(sh int) request { return request{kind: reqPushEnd, step: h.step, worker: h.curWorker} }
	h.mkFinish = func(sh int) request { return request{kind: reqFinish, step: h.step, done: h.dones[sh]} }
	h.mkPush = func(sh int) request {
		sp := h.nodes[sh].subs.Get().(*[][]byte)
		idx := h.idxs[sh]
		sub := (*sp)[:len(idx)]
		for k, gi := range idx {
			sub[k] = h.curWires[gi]
		}
		*sp = sub
		return request{kind: reqPush, step: h.step, worker: h.curWorker, wires: sp}
	}
	return h, nil
}

// snode is one shard executor: its sub-job, its bounded request queue and
// the goroutine that drains the queue in FIFO order.
type snode struct {
	id   int
	job  *ps.Job
	reqs chan request
	subs sync.Pool // *[][]byte scratch for split wire sets

	// Executor-owned state (touched only by run).
	step       int
	decodeDur  time.Duration
	err        error
	sess       ps.PushSession // current streamed-push session
	sessWorker int
	hasSess    bool
}

// run serves the shard's requests in arrival order until Close closes the
// queue. FIFO order is what keeps per-tensor gradient accumulation in
// worker order.
func (n *snode) run() {
	for req := range n.reqs {
		n.serve(req)
	}
}

// serve applies one request to the shard's sub-job.
func (n *snode) serve(req request) {
	switch req.kind {
	case reqBegin:
		n.step = req.step
		n.decodeDur = 0
		n.err = nil
		n.hasSess = false
		n.job.BeginStep()
	case reqPush:
		n.servePush(req)
	case reqPushTensor:
		n.servePushTensor(req)
	case reqPushEnd:
		if n.err != nil {
			break
		}
		if req.step != n.step {
			n.err = fmt.Errorf("shard %d: push end for step %d during step %d", n.id, req.step, n.step)
			break
		}
		sess := n.session(req.worker)
		n.hasSess = false
		if err := sess.End(); err != nil {
			n.err = fmt.Errorf("shard %d: %w", n.id, err)
		}
	case reqFinish:
		req.done <- n.finish(req)
	}
}

// session returns the shard's streamed-push session for worker w, opening
// it lazily. Per-tensor requests arrive per worker in contiguous runs
// (the driver streams one worker, then its end marker, then the next),
// so one current session per shard suffices.
func (n *snode) session(w int) ps.PushSession {
	if !n.hasSess || n.sessWorker != w {
		n.sess = n.job.BeginPush(w)
		n.sessWorker = w
		n.hasSess = true
	}
	return n.sess
}

// servePush applies one whole-set sub-push through a push session.
func (n *snode) servePush(req request) {
	defer n.subs.Put(req.wires)
	if n.err != nil {
		return
	}
	if req.step != n.step {
		n.err = fmt.Errorf("shard %d: push for step %d during step %d", n.id, req.step, n.step)
		return
	}
	start := time.Now()
	err := n.session(req.worker).Set(*req.wires)
	n.decodeDur += time.Since(start)
	if err != nil {
		n.err = fmt.Errorf("shard %d: %w", n.id, err)
	}
}

// servePushTensor decode-accumulates one tensor of one worker's push the
// moment its request is served.
func (n *snode) servePushTensor(req request) {
	if n.err != nil {
		return
	}
	if req.step != n.step {
		n.err = fmt.Errorf("shard %d: push tensor for step %d during step %d", n.id, req.step, n.step)
		return
	}
	start := time.Now()
	err := n.session(req.worker).Tensor(req.tensor, req.wire)
	n.decodeDur += time.Since(start)
	if err != nil {
		n.err = fmt.Errorf("shard %d: %w", n.id, err)
	}
}

// finish completes the shard's step and reports its pulls and critical-
// path duration.
func (n *snode) finish(req request) result {
	if n.err != nil {
		return result{err: n.err}
	}
	if req.step != n.step {
		return result{err: fmt.Errorf("shard %d: finish for step %d during step %d", n.id, req.step, n.step)}
	}
	pulls, compDur, err := n.job.FinishStep()
	if err != nil {
		return result{err: fmt.Errorf("shard %d: %w", n.id, err)}
	}
	return result{pulls: pulls, dur: n.decodeDur + compDur}
}

// JobHandle is the sharded tier's driver, with the driver shape of ps.Job
// — BeginStep / BeginPush / FinishStep — routed through the shards'
// request queues. Shard s owns the tensors Assignment.Tensors(s), runs a
// ps sub-job (with the zero-allocation codec pool) for them on its own
// goroutine, and receives work through a bounded request queue:
//
//   - BeginStep and a push session's Set are asynchronous: they enqueue
//     per-shard requests (splitting each worker's wire set by placement)
//     and return without waiting for the shards to process them. Shards
//     therefore decode worker w's push while the driver is still enqueuing
//     worker w+1's — the push pipeline.
//   - FinishStep is the step barrier: it waits for every shard to drain
//     its queue, apply its optimizer slice, and compress its pull wires,
//     then reassembles the shards' pulls into the full-model wire set.
//
// Determinism: pushes are enqueued in worker order and each shard serves
// its queue FIFO, so per-tensor gradient accumulation happens in exactly
// the order the single server uses — the sharded model state is
// byte-identical to the single-PS state for every codec (the equivalence
// tests pin this). A full queue blocks the driver's send until the shard
// drains a request: backpressure can delay a step but never reorder or
// drop work within it.
//
// Like ps.Job, a handle's driver methods are not safe for concurrent use;
// the concurrency lives behind the queues.
type JobHandle struct {
	asn   Assignment
	nodes []*snode
	param int           // full-model tensor count
	idxs  [][]int       // per-shard owned tensor indices (asn.Tensors, precomputed)
	local []int         // global tensor index -> shard-local index
	dones []chan result // recycled FinishStep barrier channels

	// Persistent request builders (see NewCluster) and the driver-owned
	// fields they read.
	mkBegin, mkEnd, mkFinish, mkPush func(sh int) request
	curWorker                        int
	curWires                         [][]byte

	step     int
	began    bool
	pull     [][]byte // reassembled full pull set, recycled across steps
	sessions []handleSession
}

var _ ps.Tier = (*JobHandle)(nil)

// NumShards returns the tier's shard count.
func (h *JobHandle) NumShards() int { return h.asn.NumShards }

// Close stops the shard goroutines, after which the handle must not be
// used. It must be called at a step boundary. The error is always nil; the
// signature is io.Closer's, which is how train.Run disposes of a tier.
func (h *JobHandle) Close() error {
	for _, n := range h.nodes {
		close(n.reqs)
	}
	return nil
}

// send enqueues req on shard sh, blocking while the shard's queue is
// full. A shard is a goroutine draining its queue, so the wait is bounded
// by the requests already queued ahead of req.
func (h *JobHandle) send(sh int, req request) {
	h.nodes[sh].reqs <- req
}

// broadcast sends one request per shard (built by mk), in shard order.
func (h *JobHandle) broadcast(mk func(sh int) request) {
	for sh := range h.nodes {
		h.send(sh, mk(sh))
	}
}

// BeginStep starts a new training step on every shard (asynchronously).
func (h *JobHandle) BeginStep() {
	h.step++
	h.began = true
	h.broadcast(h.mkBegin)
}

// BeginPush opens workerID's push session for the current step: the
// driver-side half of the tier's single push choke point. The returned
// session is recycled per worker (valid until the job's next BeginPush
// for the same worker).
func (h *JobHandle) BeginPush(workerID int) ps.PushSession {
	for workerID >= len(h.sessions) {
		h.sessions = append(h.sessions, handleSession{h: h})
	}
	se := &h.sessions[workerID]
	se.worker = workerID
	return se
}

// handleSession routes one worker's push through the shards' queues.
type handleSession struct {
	h      *JobHandle
	worker int
}

func (se *handleSession) Set(wires [][]byte) error {
	return se.h.addPush(se.worker, wires)
}

func (se *handleSession) Tensor(i int, wire []byte) error {
	return se.h.addPushTensor(se.worker, i, wire)
}

func (se *handleSession) End() error {
	return se.h.endPush(se.worker)
}

// addPush splits one worker's full-model wire set by placement and
// enqueues the per-shard sub-pushes, pipelined across shards. It returns
// as soon as every shard's queue holds its sub-request — decode work
// overlaps with the caller's next push. The wires must stay valid until
// FinishStep returns: sub-requests alias them. Decode errors surface at
// FinishStep.
func (h *JobHandle) addPush(workerID int, wires [][]byte) error {
	if len(wires) != h.param {
		return fmt.Errorf("shard: push has %d tensors, model has %d", len(wires), h.param)
	}
	if !h.began {
		return fmt.Errorf("shard: push before BeginStep")
	}
	h.curWorker, h.curWires = workerID, wires
	h.broadcast(h.mkPush)
	return nil
}

// addPushTensor routes a single tensor of workerID's push to the shard
// that owns it, asynchronously. Per-tensor requests for the same tensor
// must be issued in worker order (each shard's FIFO then preserves it,
// keeping the aggregate byte-identical to the whole-set driver); after a
// worker's last tensor the session End must run once. The wire must stay
// valid until FinishStep returns.
func (h *JobHandle) addPushTensor(workerID, gi int, wire []byte) error {
	if gi < 0 || gi >= h.param {
		return fmt.Errorf("shard: push tensor index %d out of range (model has %d tensors)", gi, h.param)
	}
	if !h.began {
		return fmt.Errorf("shard: push tensor before BeginStep")
	}
	h.send(h.asn.ShardOf[gi], request{kind: reqPushTensor, step: h.step, worker: workerID, tensor: h.local[gi], wire: wire})
	return nil
}

// endPush marks workerID's per-tensor push complete on every shard (each
// shard's sub-job advances the push count its averaging divides by).
func (h *JobHandle) endPush(workerID int) error {
	if !h.began {
		return fmt.Errorf("shard: push end before BeginStep")
	}
	h.curWorker = workerID
	h.broadcast(h.mkEnd)
	return nil
}

// FinishStep is the step barrier: every shard drains its queue, averages
// its gradients, applies its optimizer slice, and compresses its pull
// wires; the shards' pulls are then reassembled into full-model tensor
// order. The returned duration is the tier critical path — the slowest
// shard's decode + optimizer + pull-compress time. The wire slices alias
// shard-owned buffers recycled on the next FinishStep (the ps.Job
// contract).
func (h *JobHandle) FinishStep() ([][]byte, time.Duration, error) {
	if !h.began {
		return nil, 0, fmt.Errorf("shard: FinishStep before BeginStep")
	}
	h.began = false
	h.broadcast(h.mkFinish)
	var critical time.Duration
	var errs []error // nil in the steady state: allocated only on failure
	for i := range h.pull {
		h.pull[i] = nil
	}
	for sh, done := range h.dones {
		r := <-done
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		if r.dur > critical {
			critical = r.dur
		}
		for k, gi := range h.idxs[sh] {
			h.pull[gi] = r.pulls[k]
		}
	}
	if len(errs) > 0 {
		return nil, 0, errors.Join(errs...)
	}
	return h.pull, critical, nil
}
