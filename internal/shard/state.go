// Sharded-tier state capture: one job's mutable training state is the
// union of its per-shard sub-jobs' states (per-shard optimizer slice +
// pull contexts). Both methods must only be called between steps — after
// FinishStep has returned and before the next BeginStep. At that point
// every shard's queue is empty and the executor goroutines are not
// touching the sub-jobs; the FinishStep result channel (capture) / the
// next request enqueue (restore) provide the happens-before edges that
// make the direct sub-job access race-free, per shard.
package shard

import (
	"encoding/binary"
	"fmt"

	"threelc/internal/nn"
)

// AppendState serializes every shard sub-job's mutable state to dst, in
// shard order. The model weights are checkpointed separately.
func (h *JobHandle) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	var b4 [4]byte
	le.PutUint32(b4[:], uint32(len(h.nodes)))
	dst = append(dst, b4[:]...)
	for _, n := range h.nodes {
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = n.job.AppendState(dst)
		le.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst
}

// Velocity returns the velocity of p on the shard that steps it
// (ps.Momentum), nil before p's first step. Like AppendState it is a
// between-steps call.
func (h *JobHandle) Velocity(p *nn.Param) []float32 {
	for _, n := range h.nodes {
		if v := n.job.Velocity(p); v != nil {
			return v
		}
	}
	return nil
}

// RestoreState restores state captured by AppendState on a job with the
// same shard count and configuration.
func (h *JobHandle) RestoreState(src []byte) error {
	le := binary.LittleEndian
	if len(src) < 4 {
		return fmt.Errorf("shard: cluster state truncated")
	}
	if n := int(le.Uint32(src)); n != len(h.nodes) {
		return fmt.Errorf("shard: checkpoint has %d shards, cluster has %d", n, len(h.nodes))
	}
	src = src[4:]
	for s, n := range h.nodes {
		if len(src) < 4 {
			return fmt.Errorf("shard: shard %d state length truncated", s)
		}
		size := int(le.Uint32(src))
		src = src[4:]
		if len(src) < size {
			return fmt.Errorf("shard: shard %d state truncated (%d of %d bytes)", s, len(src), size)
		}
		if err := n.job.RestoreState(src[:size]); err != nil {
			return fmt.Errorf("shard: shard %d: %w", s, err)
		}
		src = src[size:]
	}
	if len(src) != 0 {
		return fmt.Errorf("shard: %d trailing cluster state bytes", len(src))
	}
	return nil
}
