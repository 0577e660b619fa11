// Package shard places a model's tensors on the horizontally sharded
// parameter-server tier the paper's architecture sketches in Figure 1: the
// tensors are partitioned across N shard servers, each of which owns the
// optimizer state and pull-compression contexts of its tensors.
//
// The package has no runtime of its own. Assignment (this file) is the
// deterministic tensor→shard placement: size-balanced bin packing
// (longest-processing-time greedy: biggest tensor to the least-loaded
// shard), which balances per-shard wire bytes — the quantity that limits a
// shard NIC. SubServers (servers.go) builds the ps sub-job of each shard,
// which a transport.ShardServer serves on its own listener; workers dial
// every shard (transport.DialShardedConfig), and train.Run drives them through
// transport.DialTier.
//
// Placement, like compression, is exact: the union of all shards' state
// is byte-identical to a single parameter server's (see
// TestShardedEquivalentToSinglePS).
//
//3lc:det
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Assignment maps every tensor (by model parameter index) to a shard.
type Assignment struct {
	// NumShards is the shard count N; shard ids are 0..N-1.
	NumShards int
	// ShardOf[i] is the owning shard of tensor i.
	ShardOf []int
}

// Tensors returns the tensor indices owned by shard s, in ascending order.
func (a Assignment) Tensors(s int) []int {
	var out []int
	for i, sh := range a.ShardOf {
		if sh == s {
			out = append(out, i)
		}
	}
	return out
}

// Loads returns the per-shard summed sizes under this assignment.
func (a Assignment) Loads(sizes []int) []int {
	loads := make([]int, a.NumShards)
	for i, s := range a.ShardOf {
		loads[s] += sizes[i]
	}
	return loads
}

// Validate checks structural sanity: every tensor mapped to a shard in
// range, and no empty shard unless there are fewer tensors than shards.
func (a Assignment) Validate(tensors int) error {
	if len(a.ShardOf) != tensors {
		return fmt.Errorf("shard: assignment covers %d tensors, want %d", len(a.ShardOf), tensors)
	}
	seen := make([]bool, a.NumShards)
	for i, s := range a.ShardOf {
		if s < 0 || s >= a.NumShards {
			return fmt.Errorf("shard: tensor %d assigned to shard %d of %d", i, s, a.NumShards)
		}
		seen[s] = true
	}
	if tensors >= a.NumShards {
		for s, ok := range seen {
			if !ok {
				return fmt.Errorf("shard: shard %d owns no tensors", s)
			}
		}
	}
	return nil
}

// Hash returns a stable checksum of the placement. The sharded transport
// handshake exchanges it so a worker and a server tier that computed
// placements from different model descriptions fail fast instead of
// decoding each other's tensors into the wrong slots.
func (a Assignment) Hash() uint32 {
	h := fnv.New32a()
	var b [4]byte
	put := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	put(uint32(a.NumShards))
	for _, s := range a.ShardOf {
		put(uint32(s))
	}
	return h.Sum32()
}

// PackBySize builds a size-balanced assignment of tensors to `shards` bins
// using the longest-processing-time greedy rule: tensors are considered in
// descending size order and each goes to the currently least-loaded shard.
// Ties (equal sizes, equal loads) break on the lower index, so the
// placement is a pure function of (sizes, shards) — the same tensor set
// always lands identically, which the wire handshake and the equivalence
// tests rely on. LPT guarantees a per-shard load within 4/3 of optimal.
func PackBySize(sizes []int, shards int) Assignment {
	if shards < 1 {
		shards = 1
	}
	a := Assignment{NumShards: shards, ShardOf: make([]int, len(sizes))}
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return sizes[order[x]] > sizes[order[y]] })
	loads := make([]int, shards)
	for _, ti := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		a.ShardOf[ti] = best
		loads[best] += sizes[ti]
	}
	return a
}
