package shard

import (
	"fmt"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
)

// Config tunes the sharded tier and its asynchronous push/pull pipeline.
type Config struct {
	// Shards is the parameter-server shard count. Zero or one means a
	// single shard (still running behind the async pipeline, so the two
	// paths share every line of code).
	Shards int
	// QueueDepth is the per-shard outstanding-request budget: how many
	// begin/push/finish requests may be queued on a shard before the
	// pipeline applies backpressure. Zero means DefaultQueueDepth.
	QueueDepth int
	// Timeout is how long one enqueue attempt waits on a saturated shard
	// queue before the straggler-retry logic kicks in. Zero means
	// DefaultTimeout.
	Timeout time.Duration
	// Retries is how many times a timed-out enqueue is retried, each
	// attempt waiting twice as long as the last (a straggling shard
	// usually just needs more time; a dead one should fail fast). Zero means
	// DefaultRetries.
	Retries int
	// SlowShard, if non-nil, is invoked by shard s's executor goroutine
	// before it processes each step's first request — a test hook that
	// emulates a straggling shard so the timeout+retry path is exercised
	// deterministically.
	SlowShard func(shard, step int)
	// RetryJitter is the straggler retry's symmetric jitter fraction in
	// [0, 1) (see retry.Policy.Jitter): each timed wait is scaled by a
	// deterministic factor so several shards' retries do not re-attempt
	// in lockstep. Zero means DefaultRetryJitter; negative disables
	// jitter.
	RetryJitter float64
	// RetrySeed selects the deterministic jitter stream; each shard
	// derives a decorrelated sub-stream from it. Runs with the same seed
	// replay the same backoff schedule.
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
	// DefaultRetryJitter keeps concurrent shards' straggler retries from
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
	wires  *[][]byte   // sub wire set (reqPush); returned to the shard's pool after use
	done   chan result // reqFinish only
}

type result struct {
	pulls [][]byte
	dur   time.Duration
	err   error
}

// ForModel computes the (size-balanced, deterministic) placement of
// model's tensors across `shards` shards — the one NewCluster uses.
// Workers and the server tier each call this on their own model replica
// and arrive at the same placement; Assignment.Hash is exchanged in the
// sharded transport handshake to verify that.
func ForModel(model *nn.Model, shards int) Assignment {
	params := model.Params()
	names := make([]string, len(params))
	sizes := make([]int, len(params))
	for i, p := range params {
		names[i] = p.Name
		sizes[i] = p.W.Len() * 4
	}
	return Assign(names, sizes, shards)
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
