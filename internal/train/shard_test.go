package train

import (
	"strings"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/ps"
)

// TestShardedRunMatchesSingleServer pins the end-to-end contract of the
// sharded tier inside the training driver: the same run with 1 and 4
// parameter-server shards produces identical learning trajectories and
// identical wire traffic — sharding changes where tensors live and how
// fast the tier runs, never what it computes.
func TestShardedRunMatchesSingleServer(t *testing.T) {
	base := Config{
		Design: Design{
			Name:   "3LC (s=1.50)",
			Scheme: compress.SchemeThreeLC,
			Opts:   compress.Options{Sparsity: 1.5, ZeroRun: true},
		},
		Workers:        3,
		BatchPerWorker: 8,
		Steps:          6,
		Data:           data.Config{Train: 120, Test: 40, C: 3, H: 8, W: 8, Classes: 4, Seed: 5},
		BuildModel: func() *nn.Model {
			return nn.NewMLP(3*8*8, []int{24, 16}, 4, 3)
		},
		FlatInput:        true,
		MinCompressElems: 1,
		Parallelism:      1,
		RecordSteps:      true,
		Seed:             11,
	}

	single := base
	sharded := base
	sharded.Shards = 4

	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}

	if rm.Shards != 4 || rs.Shards != 1 {
		t.Fatalf("Shards recorded as %d / %d, want 4 / 1", rm.Shards, rs.Shards)
	}
	if rs.FinalLoss != rm.FinalLoss {
		t.Errorf("final loss differs: single %v sharded %v", rs.FinalLoss, rm.FinalLoss)
	}
	if rs.FinalAccuracy != rm.FinalAccuracy {
		t.Errorf("final accuracy differs: single %v sharded %v", rs.FinalAccuracy, rm.FinalAccuracy)
	}
	if rs.TotalPushBytes != rm.TotalPushBytes || rs.TotalPullBytes != rm.TotalPullBytes {
		t.Errorf("traffic differs: single %d/%d sharded %d/%d",
			rs.TotalPushBytes, rs.TotalPullBytes, rm.TotalPushBytes, rm.TotalPullBytes)
	}
	for i := range rs.StepRecords {
		a, b := rs.StepRecords[i], rm.StepRecords[i]
		if a.Loss != b.Loss || a.PushBytes != b.PushBytes || a.PullBytes != b.PullBytes {
			t.Fatalf("step %d diverges: single %+v sharded %+v", i, a, b)
		}
	}
	// The sharded virtual network divides server traffic across 4 NICs:
	// communication-bound steps must not get slower.
	if rm.TotalVirtualSec > rs.TotalVirtualSec*1.001 {
		t.Errorf("sharded virtual time %v exceeds single-server %v", rm.TotalVirtualSec, rs.TotalVirtualSec)
	}
}

// TestTrainServiceConfigValidation pins the driver's tier plumbing: Shards
// and a Tier hook are mutually exclusive, refused before the hook runs.
func TestTrainServiceConfigValidation(t *testing.T) {
	cfg := tinyConfig(Design{Name: "float32", Scheme: compress.SchemeNone}, 2)
	cfg.Shards = 2
	cfg.Tier = func(*nn.Model, ps.Config) (ps.Tier, error) {
		t.Error("Run built the Tier hook's tier despite Shards")
		return nil, nil
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Run with both Shards and Tier: %v, want the exclusivity refusal", err)
	}
}
