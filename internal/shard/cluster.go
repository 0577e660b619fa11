package shard

import (
	"fmt"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
)

// Config sizes the sharded tier: its shard count is its only setting.
type Config struct {
	// Shards is the parameter-server shard count. Zero or one means a
	// single shard (still running behind the async pipeline, so the two
	// paths share every line of code).
	Shards int
}

// queueDepth is each shard's request queue capacity: how many begin/push/
// finish requests the driver may run ahead of a shard before a send
// blocks until the shard drains one.
const queueDepth = 16

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
