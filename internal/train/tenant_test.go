package train

import (
	"fmt"
	"sync"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tenant"
)

// tenantRunConfig builds one tenant's full training configuration:
// distinct codec, model seed, and data seed per id, so concurrent jobs on
// a shared tier do genuinely different work.
func tenantRunConfig(id int) Config {
	designs := []Design{
		{Name: "3LC (s=1.50)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.5, ZeroRun: true}},
		{Name: "8-bit int", Scheme: compress.SchemeInt8},
		{Name: "float32", Scheme: compress.SchemeNone},
		{Name: "topk", Scheme: compress.SchemeTopK, Opts: compress.Options{Fraction: 0.3, Seed: 9}},
	}
	mseed := uint64(3 + id)
	return Config{
		Design:         designs[id%len(designs)],
		Workers:        2,
		BatchPerWorker: 6,
		Steps:          4,
		Data:           data.Config{Train: 60, Test: 20, C: 3, H: 8, W: 8, Classes: 4, Seed: uint64(5 + id)},
		BuildModel: func() *nn.Model {
			return nn.NewMLP(3*8*8, []int{16}, 4, mseed)
		},
		FlatInput:        true,
		MinCompressElems: 1,
		Parallelism:      1,
		RecordSteps:      true,
		Seed:             uint64(11 + id),
	}
}

// runOnService runs cfg as tenant id of the shared tier svc: the Tier hook
// admits the job under limits, and it is retired when the run returns.
func runOnService(cfg Config, svc *shard.Service, id tenant.ID, limits tenant.Limits) (*Result, error) {
	cfg.Tier = func(global *nn.Model, psCfg ps.Config) (ps.Tier, error) {
		return svc.Admit(id, global, psCfg, limits)
	}
	defer svc.Retire(id)
	return Run(cfg)
}

// requireIdentical asserts two runs took bit-identical trajectories.
func requireIdentical(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if ref.FinalLoss != got.FinalLoss {
		t.Errorf("%s: final loss differs: solo %v shared %v", label, ref.FinalLoss, got.FinalLoss)
	}
	if ref.FinalAccuracy != got.FinalAccuracy {
		t.Errorf("%s: final accuracy differs: solo %v shared %v", label, ref.FinalAccuracy, got.FinalAccuracy)
	}
	if ref.TotalPushBytes != got.TotalPushBytes || ref.TotalPullBytes != got.TotalPullBytes {
		t.Errorf("%s: traffic differs: solo %d/%d shared %d/%d",
			label, ref.TotalPushBytes, ref.TotalPullBytes, got.TotalPushBytes, got.TotalPullBytes)
	}
	for i := range ref.StepRecords {
		a, b := ref.StepRecords[i], got.StepRecords[i]
		if a.Loss != b.Loss || a.PushBytes != b.PushBytes || a.PullBytes != b.PullBytes {
			t.Fatalf("%s: step %d diverges: solo %+v shared %+v", label, i, a, b)
		}
	}
}

// TestTrainTenantsShareTierBitIdentical is the end-to-end multi-tenant
// gate at the training-driver level: several concurrent jobs — different
// codecs, models, and data — run over ONE shared shard tier, and each
// must reproduce its solo dedicated-tier run bit for bit.
func TestTrainTenantsShareTierBitIdentical(t *testing.T) {
	const tenants = 4

	solo := make([]*Result, tenants)
	for i := 0; i < tenants; i++ {
		cfg := tenantRunConfig(i)
		cfg.Shards = 2
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("tenant %d solo: %v", i+1, err)
		}
		solo[i] = r
	}

	svc := shard.NewService(shard.Config{Shards: 2}, tenant.NewRegistry(tenants))
	defer svc.Close()
	shared := make([]*Result, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared[i], errs[i] = runOnService(tenantRunConfig(i), svc, tenant.ID(i+1), tenant.Limits{})
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d shared: %v", i+1, errs[i])
		}
		if shared[i].Shards != 2 {
			t.Errorf("tenant %d recorded %d shards, want 2", i+1, shared[i].Shards)
		}
		requireIdentical(t, fmt.Sprintf("tenant %d", i+1), solo[i], shared[i])
	}
	if n := svc.Registry().Len(); n != 0 {
		t.Errorf("%d tenants still admitted after all runs retired", n)
	}
}

// TestTrainManyTenantsComplete is the scale smoke: 64 concurrent jobs
// admitted to one shared tier must all complete training and retire. It
// checks completion and per-tenant accounting, not trajectories — the
// bit-identity gate above covers those.
func TestTrainManyTenantsComplete(t *testing.T) {
	const tenants = 64
	svc := shard.NewService(shard.Config{Shards: 4}, tenant.NewRegistry(tenants))
	defer svc.Close()

	results := make([]*Result, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := tenantRunConfig(i)
			cfg.Steps = 2
			cfg.RecordSteps = false
			results[i], errs[i] = runOnService(cfg, svc, tenant.ID(i+1), tenant.Limits{MaxSteps: 8, MaxOutstanding: 16})
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i+1, errs[i])
		}
		if results[i].FinalLoss <= 0 {
			t.Errorf("tenant %d: no training happened (loss %v)", i+1, results[i].FinalLoss)
		}
	}
	if n := svc.Registry().Len(); n != 0 {
		t.Errorf("%d tenants still admitted after all runs retired", n)
	}
}

// TestTrainServiceConfigValidation pins the driver's tenancy plumbing:
// Shards and a Tier hook (here: a shared Service) are mutually exclusive.
func TestTrainServiceConfigValidation(t *testing.T) {
	svc := shard.NewService(shard.Config{Shards: 2}, nil)
	defer svc.Close()

	cfg := tenantRunConfig(0)
	cfg.Shards = 2
	if _, err := runOnService(cfg, svc, tenant.Default, tenant.Limits{}); err == nil {
		t.Fatal("Run accepted both Shards and Service")
	}
}
