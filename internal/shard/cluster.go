package shard

import (
	"fmt"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/tenant"
)

// Config tunes the sharded tier and its asynchronous push/pull pipeline.
type Config struct {
	// Shards is the parameter-server shard count. Zero or one means a
	// single shard (still running behind the async pipeline, so the two
	// paths share every line of code).
	Shards int
	// QueueDepth is the per-tenant, per-shard outstanding-request budget:
	// how many begin/push/finish requests one job may have queued on a
	// shard before the pipeline applies backpressure. Zero means
	// DefaultQueueDepth. A tenant's Limits.MaxOutstanding overrides it.
	QueueDepth int
	// Window caps how many per-shard requests one driver call keeps in
	// flight simultaneously (the async pipeline's in-flight window). Zero
	// means "all shards at once".
	Window int
	// Timeout is how long one enqueue attempt waits on a saturated shard
	// queue before the straggler-retry logic kicks in. Zero means
	// DefaultTimeout.
	Timeout time.Duration
	// Retries is how many times a timed-out enqueue is retried, each
	// attempt waiting twice as long as the last (a straggling shard —
	// e.g. one lagging under stale-synchronous emulation — usually just
	// needs more time; a dead one should fail fast). Zero means
	// DefaultRetries.
	Retries int
	// Assignment overrides the tensor placement. Nil computes the default
	// size-balanced packing (Assign) over the model's tensors. Only
	// meaningful for a dedicated Cluster: jobs admitted to a shared
	// Service always get the default placement over their own model.
	Assignment *Assignment
	// SlowShard, if non-nil, is invoked by shard s's scheduler goroutine
	// before it processes each step's first request — a test hook that
	// emulates a straggling shard so the timeout+retry path is exercised
	// deterministically.
	SlowShard func(shard, step int)
	// RetryJitter is the straggler retry's symmetric jitter fraction in
	// [0, 1) (see retry.Policy.Jitter): each timed wait is scaled by a
	// deterministic factor so many lanes backing off from the same
	// straggling shard do not re-attempt in lockstep. Zero means
	// DefaultRetryJitter; negative disables jitter.
	RetryJitter float64
	// RetrySeed selects the deterministic jitter stream; each (tenant,
	// shard) lane derives a decorrelated sub-stream from it. Runs with the
	// same seed replay the same backoff schedule.
	RetrySeed uint64
	// BreakerThreshold is how many consecutive exhausted-retry failures on
	// one shard's queue open that shard's circuit breaker, after which
	// sends fail fast with ErrShardDown instead of burning the full
	// timeout ladder per request. Zero means DefaultBreakerThreshold;
	// negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects instantly before
	// letting one probe request through (half-open). Zero means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// Pipeline defaults.
const (
	DefaultQueueDepth = 16
	DefaultTimeout    = 5 * time.Second
	DefaultRetries    = 3
	// DefaultRetryJitter keeps concurrent lanes' straggler retries from
	// synchronizing without distorting the schedule's shape.
	DefaultRetryJitter = 0.1
	// DefaultBreakerThreshold / DefaultBreakerCooldown tune the per-shard
	// circuit breaker: three consecutive retry-budget exhaustions open it,
	// and it stays open for one second before admitting a probe.
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = time.Second
)

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return DefaultQueueDepth
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c Config) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return DefaultRetries
}

func (c Config) retryJitter() float64 {
	if c.RetryJitter < 0 {
		return 0
	}
	if c.RetryJitter == 0 {
		return DefaultRetryJitter
	}
	return c.RetryJitter
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold < 0 {
		return 0 // disabled
	}
	if c.BreakerThreshold == 0 {
		return DefaultBreakerThreshold
	}
	return c.BreakerThreshold
}

func (c Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown > 0 {
		return c.BreakerCooldown
	}
	return DefaultBreakerCooldown
}

type reqKind uint8

const (
	reqBegin reqKind = iota + 1
	reqPush
	reqPushTensor
	reqPushEnd
	reqFinish
)

type request struct {
	kind   reqKind
	step   int
	worker int
	tensor int         // shard-local tensor index (reqPushTensor)
	wire   []byte      // single tensor wire (reqPushTensor); aliases the caller's buffer
	wires  *[][]byte   // sub wire set (reqPush); returned to the lane pool after use
	done   chan result // reqFinish only
	enq    time.Time   // enqueue instant, for tenant queue-wait stats
}

type result struct {
	pulls [][]byte
	dur   time.Duration
	err   error
}

// Cluster is a dedicated sharded parameter-server tier over one global
// model: a single-tenant Service plus the JobHandle of its one job (the
// default tenant), kept as one object with the driver shape of ps.Job —
// BeginStep / BeginPush / FinishStep. Shard s owns the tensors Assignment.Tensors(s), runs a ps
// sub-job (with the zero-allocation codec pool) for them on its own
// scheduler goroutine, and receives work through a bounded request
// queue:
//
//   - BeginStep and a push session's Set are asynchronous: they enqueue per-shard
//     requests (splitting each worker's wire set by placement) and return
//     without waiting for the shards to process them. Shards therefore
//     decode worker w's push while the driver is still enqueuing worker
//     w+1's — the push pipeline.
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
// Like ps.Job, a Cluster's driver methods are not safe for concurrent
// use; the concurrency lives behind the queues. To share one shard tier
// between many jobs, use Service/Admit directly.
type Cluster struct {
	svc *Service
	h   *JobHandle
}

// NewCluster builds a dedicated sharded tier over model. The placement
// defaults to size-balanced packing of the model's tensors (by byte
// size) across cfg.Shards shards; psCfg configures each shard's codec
// and optimizer exactly as it would a single ps.Job. Callers must Close
// the cluster to stop the shard goroutines. A bad configuration (e.g. an
// override Assignment that does not cover the model) is an error, not a
// panic: tier construction sits on the service path of long-lived
// processes.
func NewCluster(model *nn.Model, psCfg ps.Config, cfg Config) (*Cluster, error) {
	svc := NewService(cfg, tenant.NewRegistry(1))
	h, err := svc.Admit(tenant.Default, model, psCfg, tenant.Limits{})
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("shard: build dedicated cluster: %w", err)
	}
	return &Cluster{svc: svc, h: h}, nil
}

// defaultAssignment resolves cfg.Assignment or computes the size-balanced
// default over the model's tensor byte sizes.
func defaultAssignment(params []*nn.Param, cfg Config) Assignment {
	if cfg.Assignment != nil {
		return *cfg.Assignment
	}
	names := make([]string, len(params))
	sizes := make([]int, len(params))
	for i, p := range params {
		names[i] = p.Name
		sizes[i] = p.W.Len() * 4
	}
	return Assign(names, sizes, cfg.Shards)
}

// ForModel computes the default (size-balanced, deterministic) placement
// of model's tensors across `shards` shards — the one NewCluster and
// Service.Admit use. Workers and the server tier each call this on their
// own model replica and arrive at the same placement; Assignment.Hash is
// exchanged in the sharded transport handshake to verify that.
func ForModel(model *nn.Model, shards int) Assignment {
	return defaultAssignment(model.Params(), Config{Shards: shards})
}

// SubServers builds one ps sub-job per shard over model under the given
// placement — the building blocks for a multi-process deployment where
// each shard runs behind its own transport listener (transport.ShardServer).
// An assignment that does not cover the model's tensors is an error.
func SubServers(model *nn.Model, psCfg ps.Config, asn Assignment) ([]*ps.Job, error) {
	params := model.Params()
	if err := asn.Validate(len(params)); err != nil {
		return nil, fmt.Errorf("shard: build sub-servers: %w", err)
	}
	out := make([]*ps.Job, asn.NumShards)
	for s := range out {
		idx := asn.Tensors(s)
		sub := make([]*nn.Param, len(idx))
		for k, gi := range idx {
			sub[k] = params[gi]
		}
		out[s] = ps.NewSubJob(sub, idx, psCfg)
	}
	return out, nil
}

// Service returns the underlying (single-tenant) shard tier.
func (c *Cluster) Service() *Service { return c.svc }

// Handle returns the cluster's job handle — the default tenant's driver.
func (c *Cluster) Handle() *JobHandle { return c.h }

// Assignment returns the tensor placement in use.
func (c *Cluster) Assignment() Assignment { return c.h.asn }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return c.h.asn.NumShards }

// BeginStep starts a new training step on every shard (asynchronously).
// A shard that cannot accept its begin request will also fail the step's
// FinishStep barrier, where the error is returned — this method stays
// error-free to keep the ps.Job driver shape.
func (c *Cluster) BeginStep() { c.h.BeginStep() }

// BeginPush opens workerID's push session for the current step (the
// PushSession choke point shared with ps.Job). Set and Tensor enqueue
// asynchronously — decode errors surface at FinishStep, their own errors
// report enqueue failures (exhausted straggler retries) — and the wires
// must stay valid until FinishStep returns: sub-requests alias them.
func (c *Cluster) BeginPush(workerID int) ps.PushSession { return c.h.BeginPush(workerID) }

// FinishStep is the step barrier: every shard drains the job's lane,
// averages its gradients, applies its optimizer slice, and compresses
// its pull wires; the shards' pulls are then reassembled into full-model
// tensor order. The returned duration is the shard-tier critical path —
// the slowest shard's decode + optimizer + pull-compress time — which is
// what a real deployment's step time would include. The wire slices
// alias shard-owned buffers recycled on that shard's next FinishStep
// (same contract as ps.Job.FinishStep).
func (c *Cluster) FinishStep() ([][]byte, time.Duration, error) { return c.h.FinishStep() }

// AppendState serializes every shard sub-job's mutable state to dst, in
// shard order. The model weights are checkpointed separately.
func (c *Cluster) AppendState(dst []byte) []byte { return c.h.AppendState(dst) }

// RestoreState restores state captured by AppendState on a cluster with
// the same shard count and configuration.
func (c *Cluster) RestoreState(src []byte) error { return c.h.RestoreState(src) }

// Close stops the shard scheduler goroutines. The cluster must not be
// used afterwards.
func (c *Cluster) Close() { c.svc.Close() }
