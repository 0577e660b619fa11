// Multi-tenant shard tier: many independent training jobs multiplexed
// over one shared set of shard executors.
//
// The split of responsibilities follows ps.Job: every piece of per-job
// state (codec contexts, error accumulation, momentum, step counters,
// pull buffers, checkpoint state) lives in the per-shard ps.Job sub-jobs
// owned by a JobHandle, while the shards themselves — snode — are
// stateless-per-job executors: a scheduler over per-tenant request
// queues, each holding its tenant's sub-job.
//
// Scheduling is deficit round-robin (DRR) over the tenants with queued
// work: each sweep a tenant's lane earns its quantum (tenant.Limits.
// Quantum bytes, DefaultQuantum when unset) and serves queued requests
// while its deficit covers their cost (a request costs its wire bytes,
// floor 1), carrying the unspent deficit forward. Large-push tenants
// therefore cannot starve small ones, and an idle lane's deficit resets
// so bursts get no retroactive credit. Within one tenant the lane is a
// FIFO, which preserves the worker-order aggregation determinism the
// bit-identity guarantees rest on — fairness reorders BETWEEN tenants
// only.
//
// Admission control is tenant.Registry (concurrent-tenant cap, fresh
// epoch per admission); per-tenant outstanding budgets bound each lane's
// queue depth (tenant.Limits.MaxOutstanding, falling back to the tier's
// Config.QueueDepth); and quotas/stats (steps, push/pull bytes, queue
// wait) are charged where the scheduler touches the traffic.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/retry"
	"threelc/internal/tenant"
)

// DefaultQuantum is the per-sweep DRR refill (in wire bytes) for tenants
// that do not set tenant.Limits.Quantum.
const DefaultQuantum = 64 << 10

// Service is the multi-tenant shard tier: Config.Shards executors shared
// by every admitted job. Admit and Retire are runtime operations; each
// job gets its own placement (computed over its own model), its own
// per-shard ps.Job sub-jobs, and its own lane in every shard's
// scheduler. Driver methods live on the per-job JobHandle.
type Service struct {
	cfg   Config
	reg   *tenant.Registry
	nodes []*snode

	mu   sync.Mutex
	jobs map[tenant.ID]*JobHandle
}

// NewService starts a shard tier with cfg.Shards executors. reg supplies
// admission control; nil means an unbounded registry. Callers must Close
// the service to stop the shard goroutines.
func NewService(cfg Config, reg *tenant.Registry) *Service {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if reg == nil {
		reg = tenant.NewRegistry(0)
	}
	s := &Service{cfg: cfg, reg: reg, jobs: make(map[tenant.ID]*JobHandle)}
	for i := 0; i < cfg.Shards; i++ {
		n := &snode{
			id:   i,
			slow: cfg.SlowShard,
			brk:  breaker{threshold: cfg.breakerThreshold(), cooldown: cfg.breakerCooldown()},
			work: make(chan struct{}, 1),
			stop: make(chan struct{}),
		}
		s.nodes = append(s.nodes, n)
		go n.run()
	}
	return s
}

// Registry returns the tier's admission registry.
func (s *Service) Registry() *tenant.Registry { return s.reg }

// NumShards returns the executor count.
func (s *Service) NumShards() int { return s.cfg.Shards }

// Admit registers a new job: tenant id drives model under psCfg, bounded
// by limits. The job's tensors are placed across the tier's shards by
// ForModel's size-balanced packing, and each shard gains a ps sub-job plus
// a scheduler lane for the tenant.
// Admission fails with tenant.ErrAdmitLimit / tenant.ErrDuplicate per
// the registry.
func (s *Service) Admit(id tenant.ID, model *nn.Model, psCfg ps.Config, limits tenant.Limits) (*JobHandle, error) {
	ten, err := s.reg.Admit(id, limits)
	if err != nil {
		return nil, err
	}
	params := model.Params()
	asn := ForModel(model, s.cfg.Shards)

	depth := limits.MaxOutstanding
	if depth <= 0 {
		depth = s.cfg.queueDepth()
	}
	quantum := limits.Quantum
	if quantum <= 0 {
		quantum = DefaultQuantum
	}

	h := &JobHandle{
		svc:     s,
		ten:     ten,
		asn:     asn,
		param:   len(params),
		workers: psCfg.Workers,
		idxs:    make([][]int, s.cfg.Shards),
		local:   make([]int, len(params)),
		pull:    make([][]byte, len(params)),
		dones:   make([]chan result, s.cfg.Shards),
		errs:    make([]error, s.cfg.Shards),
	}
	// The straggler backoff schedule: the same ladder the old bare
	// doubling produced (base = enqueue timeout, 2x growth), but expressed
	// as a retry.Policy so the delays carry deterministic seeded jitter —
	// every (tenant, shard) lane draws a decorrelated stream, which keeps
	// the tier's lanes from re-attempting a shared straggler in lockstep.
	base := retry.Policy{
		MaxAttempts: s.cfg.retries() + 1,
		Base:        s.cfg.timeout(),
		Cap:         s.cfg.timeout() << uint(s.cfg.retries()),
		Multiplier:  2,
		Jitter:      s.cfg.retryJitter(),
		Seed:        s.cfg.RetrySeed,
	}
	h.pols = make([]retry.Policy, s.cfg.Shards)
	for sh := 0; sh < s.cfg.Shards; sh++ {
		h.idxs[sh] = asn.Tensors(sh)
		for k, gi := range h.idxs[sh] {
			h.local[gi] = k
		}
		h.dones[sh] = make(chan result, 1)
		h.pols[sh] = base.Stream(uint64(id)<<20 ^ uint64(sh))
	}
	// The per-kind request builders are allocated once here: broadcast
	// closures created per step would put four heap allocations on the
	// steady-state path. They read the handle's current step/worker/wires
	// fields, which the (single-threaded) driver sets before broadcasting.
	h.mkBegin = func(sh int) request { return request{kind: reqBegin, step: h.step} }
	h.mkEnd = func(sh int) request { return request{kind: reqPushEnd, step: h.step, worker: h.curWorker} }
	h.mkFinish = func(sh int) request { return request{kind: reqFinish, step: h.step, done: h.dones[sh]} }
	h.mkPush = func(sh int) request {
		q := h.tqs[sh]
		sp := q.subs.Get().(*[][]byte)
		idx := h.idxs[sh]
		sub := (*sp)[:len(idx)]
		for k, gi := range idx {
			sub[k] = h.curWires[gi]
		}
		*sp = sub
		return request{kind: reqPush, step: h.step, worker: h.curWorker, wires: sp}
	}
	for sh, n := range s.nodes {
		idx := h.idxs[sh]
		sub := make([]*nn.Param, len(idx))
		for k, gi := range idx {
			sub[k] = params[gi]
		}
		q := &tq{
			ten:     ten,
			job:     ps.NewSubJob(sub, idx, psCfg),
			reqs:    make(chan request, depth),
			quantum: quantum,
		}
		q.subs.New = func() any {
			b := make([][]byte, len(idx))
			return &b
		}
		h.tqs = append(h.tqs, q)
		n.addTenant(q)
	}
	s.mu.Lock()
	s.jobs[id] = h
	s.mu.Unlock()
	return h, nil
}

// Handle returns the live JobHandle for id.
func (s *Service) Handle(id tenant.ID) (*JobHandle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.jobs[id]
	return h, ok
}

// Retire removes id's job from every shard and the registry, returning
// the retired tenant for final stats reads. Retire is a step-boundary
// operation: it must only be called after the job's FinishStep has
// returned and before any next BeginStep, when every lane's queue is
// empty (the FinishStep result channel provides the happens-before edge,
// exactly as for state capture).
func (s *Service) Retire(id tenant.ID) (*tenant.Tenant, error) {
	s.mu.Lock()
	h, ok := s.jobs[id]
	if ok {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w (id %d)", tenant.ErrUnknown, id)
	}
	for _, n := range s.nodes {
		n.removeTenant(id)
	}
	s.reg.Retire(id)
	return h.ten, nil
}

// Close stops the shard executor goroutines. Every job must be idle (at
// a step boundary); the service must not be used afterwards.
func (s *Service) Close() {
	for _, n := range s.nodes {
		close(n.stop)
	}
}

// snode is one shard executor: the DRR scheduler goroutine over the
// tenants' request lanes. It owns no per-job state beyond the lanes.
type snode struct {
	id   int
	slow func(shard, step int)
	brk  breaker // shared failure detector: a shard is down for every tenant or none

	mu  sync.Mutex
	tqs []*tq // live lanes, admission order

	scratch []*tq         // scheduler-owned sweep snapshot
	work    chan struct{} // wake signal (cap 1)
	stop    chan struct{}
}

// tq is one tenant's lane on one shard: the bounded request queue (the
// tenant's outstanding budget), its DRR accounting, and the scheduler-
// owned per-step state of its sub-job.
type tq struct {
	ten     *tenant.Tenant
	job     *ps.Job
	reqs    chan request
	quantum int
	subs    sync.Pool // *[][]byte scratch for split wire sets

	// Scheduler-owned state (touched only by snode.run).
	held       request // one-slot peek buffer over the channel
	hasHeld    bool
	deficit    int
	step       int
	decodeDur  time.Duration
	err        error
	sess       ps.PushSession // current streamed-push session
	sessWorker int
	hasSess    bool
}

// peek exposes the lane's head request without consuming it, using the
// one-slot held buffer to emulate peek on a channel.
func (q *tq) peek() (request, bool) {
	if !q.hasHeld {
		select {
		case r := <-q.reqs:
			q.held, q.hasHeld = r, true
		default:
			return request{}, false
		}
	}
	return q.held, true
}

// pop consumes the previously peeked request.
func (q *tq) pop() {
	q.hasHeld = false
	q.held = request{}
}

// addTenant registers a lane with the executor.
func (n *snode) addTenant(q *tq) {
	n.mu.Lock()
	n.tqs = append(n.tqs, q)
	n.mu.Unlock()
}

// removeTenant drops id's lane (step-boundary only: the lane's queue
// must be empty).
func (n *snode) removeTenant(id tenant.ID) {
	n.mu.Lock()
	for i, q := range n.tqs {
		if q.ten.ID == id {
			n.tqs = append(n.tqs[:i], n.tqs[i+1:]...)
			break
		}
	}
	n.mu.Unlock()
}

// wake nudges the scheduler after an enqueue; the one-slot channel
// coalesces redundant signals.
func (n *snode) wake() {
	select {
	case n.work <- struct{}{}:
	default:
	}
}

// reqCost is a request's DRR cost: its wire bytes, floor 1 (barriers and
// markers cost the floor, so control traffic cannot be starved by the
// byte accounting).
func reqCost(req request) int {
	c := 1
	switch req.kind {
	case reqPush:
		n := 0
		for _, w := range *req.wires {
			n += len(w)
		}
		if n > c {
			c = n
		}
	case reqPushTensor:
		if len(req.wire) > c {
			c = len(req.wire)
		}
	}
	return c
}

// run is the executor's scheduler: DRR sweeps over the live lanes,
// parking on the wake channel when no lane has work. A lane whose head
// request exceeds its deficit keeps its balance and earns another
// quantum next sweep, so even a request bigger than the quantum is
// eventually affordable while other tenants keep flowing meanwhile.
func (n *snode) run() {
	for {
		n.mu.Lock()
		tqs := append(n.scratch[:0], n.tqs...)
		n.mu.Unlock()
		n.scratch = tqs

		served, starved := false, false
		for _, q := range tqs {
			req, ok := q.peek()
			if !ok {
				q.deficit = 0
				continue
			}
			q.deficit += q.quantum
			for ok {
				cost := reqCost(req)
				if cost > q.deficit {
					starved = true
					break
				}
				q.deficit -= cost
				q.pop()
				n.serve(q, req)
				served = true
				req, ok = q.peek()
			}
			if !ok {
				q.deficit = 0
			}
		}
		if served || starved {
			continue
		}
		select {
		case <-n.work:
		case <-n.stop:
			return
		}
	}
}

// serve applies one request to its tenant's sub-job, charging stats and
// byte quotas as the traffic passes through.
func (n *snode) serve(q *tq, req request) {
	if !req.enq.IsZero() {
		q.ten.Stats.QueueWaitNs.Add(time.Since(req.enq).Nanoseconds())
	}
	switch req.kind {
	case reqBegin:
		if n.slow != nil {
			n.slow(n.id, req.step)
		}
		q.step = req.step
		q.decodeDur = 0
		q.err = nil
		q.hasSess = false
		q.job.BeginStep()
	case reqPush:
		n.servePush(q, req)
	case reqPushTensor:
		n.servePushTensor(q, req)
	case reqPushEnd:
		if q.err != nil {
			break
		}
		if req.step != q.step {
			q.err = fmt.Errorf("shard %d: tenant %d push end for step %d during step %d", n.id, q.ten.ID, req.step, q.step)
			break
		}
		sess := q.session(req.worker)
		q.hasSess = false
		if err := sess.End(); err != nil {
			q.err = fmt.Errorf("shard %d: tenant %d: %w", n.id, q.ten.ID, err)
		}
	case reqFinish:
		req.done <- n.finish(q, req)
	}
}

// session returns the lane's streamed-push session for worker w, opening
// it lazily. Per-tensor requests arrive per worker in contiguous runs
// (the driver streams one worker, then its end marker, then the next),
// so one current session per lane suffices.
func (q *tq) session(w int) ps.PushSession {
	if !q.hasSess || q.sessWorker != w {
		q.sess = q.job.BeginPush(w)
		q.sessWorker = w
		q.hasSess = true
	}
	return q.sess
}

// servePush applies one whole-set sub-push through a push session.
func (n *snode) servePush(q *tq, req request) {
	defer q.subs.Put(req.wires)
	if q.err != nil {
		return
	}
	if req.step != q.step {
		q.err = fmt.Errorf("shard %d: tenant %d push for step %d during step %d", n.id, q.ten.ID, req.step, q.step)
		return
	}
	bytes := 0
	for _, w := range *req.wires {
		bytes += len(w)
	}
	q.ten.Stats.PushBytes.Add(uint64(bytes))
	if err := q.ten.ChargeBytes(uint64(bytes)); err != nil {
		q.err = err
		return
	}
	start := time.Now()
	err := q.session(req.worker).Set(*req.wires)
	q.decodeDur += time.Since(start)
	if err != nil {
		q.err = fmt.Errorf("shard %d: tenant %d: %w", n.id, q.ten.ID, err)
	}
}

// servePushTensor decode-accumulates one tensor of one worker's push the
// moment its request is served.
func (n *snode) servePushTensor(q *tq, req request) {
	if q.err != nil {
		return
	}
	if req.step != q.step {
		q.err = fmt.Errorf("shard %d: tenant %d push tensor for step %d during step %d", n.id, q.ten.ID, req.step, q.step)
		return
	}
	q.ten.Stats.PushBytes.Add(uint64(len(req.wire)))
	if err := q.ten.ChargeBytes(uint64(len(req.wire))); err != nil {
		q.err = err
		return
	}
	start := time.Now()
	err := q.session(req.worker).Tensor(req.tensor, req.wire)
	q.decodeDur += time.Since(start)
	if err != nil {
		q.err = fmt.Errorf("shard %d: tenant %d: %w", n.id, q.ten.ID, err)
	}
}

// finish completes the lane's step and reports its pulls and critical-
// path duration.
func (n *snode) finish(q *tq, req request) result {
	if q.err != nil {
		return result{err: q.err}
	}
	if req.step != q.step {
		return result{err: fmt.Errorf("shard %d: tenant %d finish for step %d during step %d", n.id, q.ten.ID, req.step, q.step)}
	}
	pulls, compDur, err := q.job.FinishStep()
	if err != nil {
		return result{err: fmt.Errorf("shard %d: tenant %d: %w", n.id, q.ten.ID, err)}
	}
	bytes := 0
	for _, w := range pulls {
		bytes += len(w)
	}
	q.ten.Stats.PullBytes.Add(uint64(bytes))
	if err := q.ten.ChargeBytes(uint64(bytes)); err != nil {
		return result{err: err}
	}
	return result{pulls: pulls, dur: q.decodeDur + compDur}
}

// Port is the per-(job, shard) executor view a network endpoint drives:
// one shard's lane of one tenant, addressed by wire step numbers. A
// multi-tenant listener (transport.MuxShardServer) holds one Port per
// tenant group it serves and drives them from independent goroutines —
// the lanes do the serialization. A Port and the job's JobHandle must
// not drive the same lane concurrently; a deployment picks one.
type Port struct {
	h     *JobHandle
	shard int
	step  int
	done  chan result
}

// Port returns the executor view of tenant id's lane on shard sh.
func (s *Service) Port(id tenant.ID, sh int) (*Port, bool) {
	h, ok := s.Handle(id)
	if !ok || sh < 0 || sh >= len(h.tqs) {
		return nil, false
	}
	return &Port{h: h, shard: sh, done: make(chan result, 1)}, true
}

// Tenant returns the port's job identity.
func (p *Port) Tenant() *tenant.Tenant { return p.h.ten }

// Workers returns the job's configured worker count — the size of the
// connection group an endpoint waits for.
func (p *Port) Workers() int { return p.h.workers }

// Hash returns the job's placement checksum for hello validation.
func (p *Port) Hash() uint32 { return p.h.asn.Hash() }

// NumTensors returns the shard-local tensor count of the port's shard.
func (p *Port) NumTensors() int { return len(p.h.asn.Tensors(p.shard)) }

// Begin opens wire step `step` on the port's lane, charging the
// tenant's step quota (once per step: on shard 0's port, so a job
// spanning several shard endpoints is not multiply charged).
func (p *Port) Begin(step int) error {
	p.step = step
	if p.shard == 0 {
		if err := p.h.ten.ChargeStep(); err != nil {
			return err
		}
	}
	return p.h.send(p.shard, request{kind: reqBegin, step: step})
}

// Push enqueues one worker's shard-local wire set (already split by
// placement on the client side). The wires must stay valid until Finish
// returns: the lane aliases them. Pushes must be issued in worker order
// within a step — the lane's FIFO then reproduces the deterministic
// aggregation order.
func (p *Port) Push(worker int, wires [][]byte) error {
	q := p.h.tqs[p.shard]
	sp := q.subs.Get().(*[][]byte)
	sub := append((*sp)[:0], wires...)
	*sp = sub
	return p.h.send(p.shard, request{kind: reqPush, step: p.step, worker: worker, wires: sp})
}

// EndPush completes worker's push (required after Push: the lane counts
// pushes at the End marker).
func (p *Port) EndPush(worker int) error {
	return p.h.send(p.shard, request{kind: reqPushEnd, step: p.step, worker: worker})
}

// Finish drains the lane, completes the shard's step, and returns the
// shard-local pulls (recycled on the lane's next Finish) and the step's
// decode + optimizer + pull-compress duration.
func (p *Port) Finish() ([][]byte, time.Duration, error) {
	if err := p.h.send(p.shard, request{kind: reqFinish, step: p.step, done: p.done}); err != nil {
		return nil, 0, err
	}
	r := <-p.done
	return r.pulls, r.dur, r.err
}

// JobHandle is one admitted job's driver, with the driver shape of ps.Job
// — BeginStep / BeginPush / FinishStep — routed through the tier's
// per-tenant lanes. Shard s owns the tensors Assignment.Tensors(s), runs a
// ps sub-job (with the zero-allocation codec pool) for them on its own
// scheduler goroutine, and receives work through a bounded request queue:
//
//   - BeginStep and a push session's Set are asynchronous: they enqueue
//     per-shard requests (splitting each worker's wire set by placement)
//     and return without waiting for the shards to process them. Shards
//     therefore decode worker w's push while the driver is still enqueuing
//     worker w+1's — the push pipeline.
//   - FinishStep is the step barrier: it waits for every shard to drain
//     the job's lane, apply its optimizer slice, and compress its pull
//     wires, then reassembles the shards' pulls into the full-model wire
//     set.
//
// Determinism: pushes are enqueued in worker order and each shard
// services a tenant's lane FIFO, so per-tensor gradient accumulation
// happens in exactly the order the single server uses — the sharded
// model state is byte-identical to the single-PS state for every codec
// (the equivalence tests pin this). The straggler retry in send() only
// re-attempts enqueues that did NOT succeed, so every request reaches
// its shard at most once and in driver order; retries can delay a step
// but never reorder or duplicate work within it.
//
// Like ps.Job, a handle's driver methods are not safe for concurrent use;
// the concurrency lives behind the lanes.
type JobHandle struct {
	svc     *Service
	owns    bool // svc is this job's own (NewCluster): Close stops it
	ten     *tenant.Tenant
	asn     Assignment
	param   int            // full-model tensor count
	workers int            // the job's worker count (ps.Config.Workers)
	idxs    [][]int        // per-shard owned tensor indices (asn.Tensors, precomputed)
	local   []int          // global tensor index -> shard-local index
	tqs     []*tq          // this job's lane on each shard
	pols    []retry.Policy // per-shard straggler backoff, decorrelated per (tenant, shard)
	dones   []chan result  // recycled FinishStep barrier channels
	errs    []error        // recycled broadcast per-shard error scratch

	// Persistent request builders (see Admit) and the driver-owned fields
	// they read.
	mkBegin, mkEnd, mkFinish, mkPush func(sh int) request
	curWorker                        int
	curWires                         [][]byte

	step     int
	began    bool
	quotaErr error
	pull     [][]byte // reassembled full pull set, recycled across steps
	sessions []handleSession
}

var _ ps.Tier = (*JobHandle)(nil)

// Tenant returns the job's admitted identity (stats, limits, epoch).
func (h *JobHandle) Tenant() *tenant.Tenant { return h.ten }

// Assignment returns the job's tensor placement over the shared tier.
func (h *JobHandle) Assignment() Assignment { return h.asn }

// Workers returns the job's configured worker count.
func (h *JobHandle) Workers() int { return h.workers }

// NumShards returns the shard count of the tier the job runs on.
func (h *JobHandle) NumShards() int { return h.asn.NumShards }

// Close stops the shard goroutines of a dedicated tier (NewCluster), after
// which the handle must not be used. A job admitted to a shared Service
// does not own it: Retire the job there instead. The error is always nil;
// the signature is io.Closer's, which is how train.Run disposes of a tier.
func (h *JobHandle) Close() error {
	if h.owns {
		h.svc.Close()
	}
	return nil
}

// send enqueues req on the job's lane at shard sh with the straggler
// timeout+retry policy: each timed wait follows the lane's retry.Policy
// (capped exponential growth with deterministic decorrelated jitter), so
// a shard that is merely slow gets absorbed while a wedged one turns
// into an error after the retry budget. The shard's circuit breaker
// short-circuits the whole ladder once the shard is presumed down —
// every subsequent send fails fast with ErrShardDown instead of adding
// its full timeout ladder to the step barrier's latency — and each timed
// re-attempt is charged to the tenant's Retries stat.
func (h *JobHandle) send(sh int, req request) error {
	q := h.tqs[sh]
	n := h.svc.nodes[sh]
	if !n.brk.allow() {
		return fmt.Errorf("shard: shard %d rejected tenant %d's request: %w", sh, h.ten.ID, ErrShardDown)
	}
	req.enq = time.Now()
	for attempt := 0; ; attempt++ {
		select {
		case q.reqs <- req:
			n.brk.success()
			n.wake()
			return nil
		default:
		}
		if attempt >= h.svc.cfg.retries() {
			n.brk.failure()
			return fmt.Errorf("shard: shard %d queue full for tenant %d after %d attempts (straggler exceeded retry budget)",
				sh, h.ten.ID, attempt+1)
		}
		t := time.NewTimer(h.pols[sh].Backoff(attempt))
		select {
		case q.reqs <- req:
			t.Stop()
			n.brk.success()
			n.wake()
			return nil
		case <-t.C:
			h.ten.Stats.Retries.Add(1)
		}
	}
}

// broadcast sends one request per shard (built by mk), all shards at
// once, collecting the errors. The single-shard tier skips the goroutine
// fan-out entirely — the multiplexing layer costs one channel send when
// only one lane exists.
func (h *JobHandle) broadcast(mk func(sh int) request) error {
	if len(h.tqs) == 1 {
		h.errs[0] = h.send(0, mk(0))
		return h.errs[0]
	}
	var wg sync.WaitGroup
	for sh := range h.tqs {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			h.errs[sh] = h.send(sh, mk(sh))
		}(sh)
	}
	wg.Wait()
	return errors.Join(h.errs...)
}

// BeginStep starts a new training step on every shard (asynchronously)
// and charges the tenant's step quota. A shard that cannot accept its
// begin request — or an exhausted quota — fails the step at the
// FinishStep barrier; this method stays error-free to keep the driver
// shape.
func (h *JobHandle) BeginStep() {
	h.step++
	h.began = true
	if err := h.ten.ChargeStep(); err != nil {
		h.quotaErr = err
		return
	}
	_ = h.broadcast(h.mkBegin)
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

// handleSession routes one worker's push through the job's shard lanes.
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
// as soon as every lane has accepted its sub-request — decode work
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
	if h.quotaErr != nil {
		return nil // the step already failed admission; FinishStep reports it
	}
	h.curWorker, h.curWires = workerID, wires
	return h.broadcast(h.mkPush)
}

// addPushTensor routes a single tensor of workerID's push to the shard
// that owns it, asynchronously. Per-tensor requests for the same tensor
// must be issued in worker order (each lane's FIFO then preserves it,
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
	if h.quotaErr != nil {
		return nil
	}
	sh := h.asn.ShardOf[gi]
	return h.send(sh, request{kind: reqPushTensor, step: h.step, worker: workerID, tensor: h.local[gi], wire: wire})
}

// endPush marks workerID's per-tensor push complete on every shard (each
// shard's sub-job advances the push count its averaging divides by).
func (h *JobHandle) endPush(workerID int) error {
	if !h.began {
		return fmt.Errorf("shard: push end before BeginStep")
	}
	if h.quotaErr != nil {
		return nil
	}
	h.curWorker = workerID
	return h.broadcast(h.mkEnd)
}

// FinishStep is the step barrier: every shard drains the job's lane,
// averages its gradients, applies its optimizer slice, and compresses
// its pull wires; the shards' pulls are then reassembled into full-model
// tensor order. The returned duration is the tier critical path — the
// slowest shard's decode + optimizer + pull-compress time. The wire
// slices alias shard-owned buffers recycled on the job's next FinishStep
// (the ps.Job contract).
func (h *JobHandle) FinishStep() ([][]byte, time.Duration, error) {
	if !h.began {
		return nil, 0, fmt.Errorf("shard: FinishStep before BeginStep")
	}
	h.began = false
	if h.quotaErr != nil {
		err := h.quotaErr
		h.quotaErr = nil
		return nil, 0, err
	}
	err := h.broadcast(h.mkFinish)
	if err != nil {
		// Drain the shards whose finish DID enqueue so the recycled
		// barrier channels stay empty for the next step.
		for sh, done := range h.dones {
			if h.errs[sh] == nil {
				<-done
			}
		}
		return nil, 0, err
	}
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
