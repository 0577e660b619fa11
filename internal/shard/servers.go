package shard

import (
	"fmt"

	"threelc/internal/nn"
	"threelc/internal/ps"
)

// ForModel computes the (size-balanced, deterministic) placement of
// model's tensors across `shards` shards. Workers and the server tier each
// call this on their own model replica and arrive at the same placement;
// Assignment.Hash is exchanged in the sharded transport handshake to
// verify that.
func ForModel(model *nn.Model, shards int) Assignment {
	params := model.Params()
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = p.W.Len() * 4
	}
	return PackBySize(sizes, shards)
}

// SubServers builds one ps sub-job per shard over model under the given
// placement — what each shard's transport.ShardServer serves. An
// assignment that does not cover the model's tensors is an error.
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
