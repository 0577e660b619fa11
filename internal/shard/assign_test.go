package shard

import (
	"testing"

	"threelc/internal/nn"
)

func TestPackBySizeDeterministicAndBalanced(t *testing.T) {
	// Deliberately adversarial sizes: a few giants, many tie-sized smalls.
	sizes := []int{4096, 12, 12, 12, 96000, 4096, 640, 640, 31, 31, 31, 128, 50000, 7}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		a := PackBySize(sizes, shards)
		b := PackBySize(append([]int(nil), sizes...), shards)
		if err := a.Validate(len(sizes)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range a.ShardOf {
			if a.ShardOf[i] != b.ShardOf[i] {
				t.Fatalf("shards=%d: placement differs across identical runs at tensor %d", shards, i)
			}
		}
		// LPT guarantee: max load <= (4/3) * OPT, and OPT >= max(total/m, maxSize).
		total, maxSize := 0, 0
		for _, s := range sizes {
			total += s
			if s > maxSize {
				maxSize = s
			}
		}
		optLB := total / shards
		if maxSize > optLB {
			optLB = maxSize
		}
		loads := a.Loads(sizes)
		for s, l := range loads {
			if float64(l) > 4.0/3.0*float64(optLB)+1 {
				t.Errorf("shards=%d: shard %d load %d exceeds 4/3 of lower bound %d (loads %v)",
					shards, s, l, optLB, loads)
			}
		}
	}
}

// TestAssignSamePlacementAcrossRuns: workers and the shard servers each
// place their own replica of the model, and must arrive at one placement.
func TestAssignSamePlacementAcrossRuns(t *testing.T) {
	build := func() *nn.Model { return nn.NewMLP(12, []int{16, 10}, 4, 7) }
	a, b := ForModel(build(), 4), ForModel(build(), 4)
	if a.Hash() != b.Hash() {
		t.Fatal("same tensor set produced different placements across runs")
	}
}

func TestAssignmentHashDetectsDrift(t *testing.T) {
	a := Assignment{NumShards: 3, ShardOf: []int{0, 1, 2, 0}}
	b := Assignment{NumShards: 3, ShardOf: []int{0, 1, 2, 1}}
	c := Assignment{NumShards: 4, ShardOf: []int{0, 1, 2, 0}}
	if a.Hash() == b.Hash() {
		t.Error("placement change not reflected in hash")
	}
	if a.Hash() == c.Hash() {
		t.Error("shard-count change not reflected in hash")
	}
}

func TestValidateRejectsBrokenAssignments(t *testing.T) {
	if err := (Assignment{NumShards: 2, ShardOf: []int{0, 2}}).Validate(2); err == nil {
		t.Error("out-of-range shard id accepted")
	}
	if err := (Assignment{NumShards: 2, ShardOf: []int{0}}).Validate(2); err == nil {
		t.Error("short assignment accepted")
	}
	if err := (Assignment{NumShards: 3, ShardOf: []int{0, 0, 0, 0}}).Validate(4); err == nil {
		t.Error("empty shard accepted despite enough tensors")
	}
	if err := (Assignment{NumShards: 4, ShardOf: []int{1, 2}}).Validate(2); err != nil {
		t.Errorf("fewer tensors than shards must allow empty shards: %v", err)
	}
}
