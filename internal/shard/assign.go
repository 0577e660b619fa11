// Package shard implements the horizontally sharded parameter-server tier
// the paper's architecture sketches in Figure 1: the model's tensors are
// partitioned across N parameter-server shards, each shard owns the
// optimizer state and pull-compression contexts for its tensors, and
// workers push/pull against all shards concurrently through an
// asynchronous pipeline.
//
// The package has two layers:
//
//   - Assignment (this file): a deterministic tensor→shard placement.
//     The primary strategy is size-balanced bin packing (longest-
//     processing-time greedy: biggest tensor to the least-loaded shard),
//     which balances per-shard wire bytes — the quantity that actually
//     limits a shard NIC. A consistent-hash ring is the fallback for
//     settings where tensor sizes are unknown or shard membership is
//     dynamic: adding a shard relocates only ~1/N of the keys.
//   - Cluster (cluster.go): the runtime tier. Each shard runs the
//     zero-allocation codec pool of package ps — per tensor, the fused
//     two-pass compress / one-pass LUT decode kernels of internal/kernel —
//     behind a bounded request queue serviced by its own goroutine, and
//     the push/pull driver pipelines requests to all shards, blocking on
//     a shard whose queue is full. Because each shard owns a disjoint
//     tensor subset, shard goroutines multiply with the kernels'
//     pass-level fan-out; ps.Config.Parallelism bounds the product per
//     shard exactly as on a single server.
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

// Ring is a consistent-hash ring over shard ids: each shard projects
// `vnodes` points onto a 64-bit circle and a key belongs to the shard
// owning the first point at or after the key's hash. Placement is a pure
// function of (shard set, vnodes, key), and growing the ring from N to
// N+1 shards relocates only the keys captured by the new shard's points —
// in expectation 1/(N+1) of them (TestRingRebalanceBounded pins the
// bound). It is the assignment fallback when tensor sizes are unknown
// (streaming registration) or shard membership changes at runtime.
type Ring struct {
	points []ringPoint
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultVnodes is the replica count giving <10% load imbalance at small
// shard counts without making ring construction noticeable.
const DefaultVnodes = 64

// NewRing builds a ring over shards 0..shards-1.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes < 1 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func pointHash(shard, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard-%d-vnode-%d", shard, vnode)
	return h.Sum64()
}

// ShardFor returns the owning shard of key.
func (r *Ring) ShardFor(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	kh := h.Sum64()
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

// AssignByName hashes each tensor name onto the ring.
func (r *Ring) AssignByName(names []string) Assignment {
	shards := 0
	for _, p := range r.points {
		if p.shard+1 > shards {
			shards = p.shard + 1
		}
	}
	a := Assignment{NumShards: shards, ShardOf: make([]int, len(names))}
	for i, n := range names {
		a.ShardOf[i] = r.ShardFor(n)
	}
	return a
}

// Assign places tensors on shards: size-balanced bin packing when sizes
// are known (the normal case — a model's tensor sizes are fixed at
// construction), falling back to consistent hashing by name when they are
// not. Both strategies are deterministic.
func Assign(names []string, sizes []int, shards int) Assignment {
	known := len(sizes) == len(names) && len(sizes) > 0
	for _, s := range sizes {
		if s <= 0 {
			known = false
			break
		}
	}
	if known {
		return PackBySize(sizes, shards)
	}
	return NewRing(shards, DefaultVnodes).AssignByName(names)
}
