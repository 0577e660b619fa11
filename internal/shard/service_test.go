package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tenant"
	"threelc/internal/tensor"
)

// sessionDriver is the step surface the multi-tenant tests drive — it is
// satisfied by *JobHandle, on a shared Service and as a dedicated tier
// alike, which is exactly the equivalence under test.
type sessionDriver interface {
	BeginStep()
	BeginPush(workerID int) ps.PushSession
	FinishStep() ([][]byte, time.Duration, error)
}

// jobSpec is one tenant's training configuration in the isolation tests:
// its own codec, model seed, and data seed, so no two tenants do the
// same work.
type jobSpec struct {
	id     tenant.ID
	scheme compress.Scheme
	opts   compress.Options
	mseed  uint64
	dseed  uint64
}

func (s jobSpec) psConfig(workers, steps int) ps.Config {
	return ps.Config{
		Scheme:           s.scheme,
		Opts:             s.opts,
		Workers:          workers,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(workers, steps),
	}
}

func (s jobSpec) build() *nn.Model {
	return nn.NewMLP(12, []int{16, 10}, 4, s.mseed)
}

// driveJob runs `steps` BSP steps of spec's job against srv and returns
// every step's pull wires (deep-copied) plus the final global weights.
// Safe to call from a non-test goroutine: failures are returned, not
// Fatal'd.
func driveJob(spec jobSpec, cfg ps.Config, global *nn.Model, srv sessionDriver, steps, workers int) ([][][]byte, []float32, error) {
	const in, classes, batch = 12, 4, 6
	ws := make([]*ps.Worker, workers)
	rngs := make([]*tensor.RNG, workers)
	for w := range ws {
		m := spec.build()
		m.CopyParamsFrom(global)
		ws[w] = ps.NewWorker(w, m, cfg)
		rngs[w] = tensor.NewRNG(spec.dseed + uint64(w))
	}

	var pullLog [][][]byte
	for step := 0; step < steps; step++ {
		srv.BeginStep()
		wires := make([][][]byte, workers)
		for w, wk := range ws {
			x := tensor.New(batch, in)
			tensor.FillNormal(x, 1, rngs[w])
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = (step + w + i) % classes
			}
			wk.Model.TrainStep(x, labels)
			wires[w], _ = wk.CompressGrads()
		}
		for w := range ws {
			sess := srv.BeginPush(w)
			if err := sess.Set(wires[w]); err != nil {
				return nil, nil, fmt.Errorf("step %d push %d: %w", step, w, err)
			}
			if err := sess.End(); err != nil {
				return nil, nil, fmt.Errorf("step %d push end %d: %w", step, w, err)
			}
		}
		pulls, _, err := srv.FinishStep()
		if err != nil {
			return nil, nil, fmt.Errorf("step %d finish: %w", step, err)
		}
		cp := make([][]byte, len(pulls))
		for i, p := range pulls {
			cp[i] = append([]byte(nil), p...)
		}
		pullLog = append(pullLog, cp)
		for _, wk := range ws {
			if _, err := wk.ApplyPull(pulls); err != nil {
				return nil, nil, fmt.Errorf("step %d apply: %w", step, err)
			}
		}
	}

	var flat []float32
	for _, p := range global.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return pullLog, flat, nil
}

// tenantSpecs builds n distinct job configurations cycling through the
// codecs with per-tenant seeds.
func tenantSpecs(n int) []jobSpec {
	specs := make([]jobSpec, n)
	for i := range specs {
		c := allCodecs[i%len(allCodecs)]
		specs[i] = jobSpec{
			id:     tenant.ID(i + 1),
			scheme: c.s,
			opts:   c.o,
			mseed:  uint64(7 + i),
			dseed:  uint64(1000 + 100*i),
		}
	}
	return specs
}

// TestTenantsIsolatedBitIdentical is the multi-tenant isolation gate: N
// concurrent tenants — different codecs, different model and data seeds
// — training over ONE shared shard tier must each produce byte-identical
// pull wires every step and bit-identical final weights to the same job
// run alone on a dedicated tier of the same shape. Fair scheduling may
// interleave the tenants' decode work arbitrarily; it must never leak
// one job's arithmetic into another's.
func TestTenantsIsolatedBitIdentical(t *testing.T) {
	const tenants, steps, workers, shards = 4, 4, 3, 2
	specs := tenantSpecs(tenants)

	type outcome struct {
		pulls [][][]byte
		w     []float32
		err   error
	}

	// Solo baselines: each job on its own dedicated tier.
	solo := make([]outcome, tenants)
	for i, spec := range specs {
		cfg := spec.psConfig(workers, steps)
		global := spec.build()
		cl := mustCluster(t, global, cfg, Config{Shards: shards})
		solo[i].pulls, solo[i].w, solo[i].err = driveJob(spec, cfg, global, cl, steps, workers)
		cl.Close()
		if solo[i].err != nil {
			t.Fatalf("tenant %d solo: %v", spec.id, solo[i].err)
		}
	}

	// Shared tier: all jobs admitted to one Service, driven concurrently.
	svc := NewService(Config{Shards: shards}, tenant.NewRegistry(tenants))
	defer svc.Close()
	shared := make([]outcome, tenants)
	var wg sync.WaitGroup
	for i, spec := range specs {
		cfg := spec.psConfig(workers, steps)
		global := spec.build()
		h, err := svc.Admit(spec.id, global, cfg, tenant.Limits{})
		if err != nil {
			t.Fatalf("admit tenant %d: %v", spec.id, err)
		}
		wg.Add(1)
		go func(i int, spec jobSpec) {
			defer wg.Done()
			shared[i].pulls, shared[i].w, shared[i].err = driveJob(spec, cfg, global, h, steps, workers)
		}(i, spec)
	}
	wg.Wait()

	for i, spec := range specs {
		if shared[i].err != nil {
			t.Fatalf("tenant %d shared: %v", spec.id, shared[i].err)
		}
		for s := range solo[i].pulls {
			for k := range solo[i].pulls[s] {
				if !bytes.Equal(solo[i].pulls[s][k], shared[i].pulls[s][k]) {
					t.Fatalf("tenant %d step %d tensor %d: pull wires differ (%d vs %d bytes)",
						spec.id, s, k, len(solo[i].pulls[s][k]), len(shared[i].pulls[s][k]))
				}
			}
		}
		for k := range solo[i].w {
			if solo[i].w[k] != shared[i].w[k] {
				t.Fatalf("tenant %d final weight %d differs: %v vs %v", spec.id, k, solo[i].w[k], shared[i].w[k])
			}
		}
		// Per-tenant accounting: every step and its traffic must be
		// attributed to the tenant that caused it.
		ten, err := svc.Registry().Get(spec.id)
		if err != nil {
			t.Fatalf("tenant %d stats: %v", spec.id, err)
		}
		snap := ten.Stats.Snapshot()
		if snap.Steps != uint64(steps) {
			t.Errorf("tenant %d charged %d steps, ran %d", spec.id, snap.Steps, steps)
		}
		if snap.PushBytes == 0 || snap.PullBytes == 0 {
			t.Errorf("tenant %d has zero traffic stats (push %d, pull %d)", spec.id, snap.PushBytes, snap.PullBytes)
		}
	}
}

// TestServiceAdmissionReject pins admission control at the tier surface:
// a full registry and a duplicate id must reject with the sentinel
// errors, and a rejected admission must leave no residue (the same id
// admits after a slot frees).
func TestServiceAdmissionReject(t *testing.T) {
	specs := tenantSpecs(3)
	cfg := specs[0].psConfig(1, 4)
	svc := NewService(Config{Shards: 2}, tenant.NewRegistry(2))
	defer svc.Close()

	if _, err := svc.Admit(1, specs[0].build(), cfg, tenant.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(1, specs[0].build(), cfg, tenant.Limits{}); !errors.Is(err, tenant.ErrDuplicate) {
		t.Fatalf("duplicate admit err = %v, want ErrDuplicate", err)
	}
	if _, err := svc.Admit(2, specs[1].build(), cfg, tenant.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(3, specs[2].build(), cfg, tenant.Limits{}); !errors.Is(err, tenant.ErrAdmitLimit) {
		t.Fatalf("over-capacity admit err = %v, want ErrAdmitLimit", err)
	}
	if _, err := svc.Retire(2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Retire(2); !errors.Is(err, tenant.ErrUnknown) {
		t.Fatalf("double retire err = %v, want ErrUnknown", err)
	}
	if _, err := svc.Admit(3, specs[2].build(), cfg, tenant.Limits{}); err != nil {
		t.Fatalf("admit after retire freed a slot: %v", err)
	}
	if _, ok := svc.Handle(2); ok {
		t.Fatal("retired tenant still has a handle")
	}
}

// TestServiceQuotaExhaustion pins quota enforcement on the live step
// path: a step quota fails the step that exceeds it at the FinishStep
// barrier, and a byte quota fails once the tenant's traffic passes it —
// both with tenant.ErrQuota, both leaving other tenants untouched.
func TestServiceQuotaExhaustion(t *testing.T) {
	const workers = 2
	cases := []struct {
		name     string
		limits   tenant.Limits
		failStep int // 1-based step whose FinishStep must fail; 0 = none in budget
	}{
		{name: "step quota", limits: tenant.Limits{MaxSteps: 2}, failStep: 3},
		{name: "byte quota", limits: tenant.Limits{MaxBytes: 64}, failStep: 1},
		{name: "roomy quotas pass", limits: tenant.Limits{MaxSteps: 100, MaxBytes: 1 << 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tenantSpecs(1)[0]
			cfg := spec.psConfig(workers, 4)
			svc := NewService(Config{Shards: 2}, nil)
			defer svc.Close()
			global := spec.build()
			h, err := svc.Admit(spec.id, global, cfg, tc.limits)
			if err != nil {
				t.Fatal(err)
			}
			steps := 3
			_, _, err = driveJob(spec, cfg, global, h, steps, workers)
			if tc.failStep == 0 {
				if err != nil {
					t.Fatalf("within quota: %v", err)
				}
				return
			}
			if !errors.Is(err, tenant.ErrQuota) {
				t.Fatalf("err = %v, want ErrQuota", err)
			}
			if want := fmt.Sprintf("step %d finish", tc.failStep-1); !strings.Contains(err.Error(), want) {
				t.Fatalf("quota failed at wrong step: %v (want %s)", err, want)
			}
		})
	}
}

// TestServiceTenantEpochsDistinguishIncarnations pins that retiring and
// re-admitting the same tenant id mints a new epoch, so frames from the
// old incarnation are rejectable at the wire boundary.
func TestServiceTenantEpochsDistinguishIncarnations(t *testing.T) {
	spec := tenantSpecs(1)[0]
	cfg := spec.psConfig(1, 2)
	svc := NewService(Config{Shards: 1}, nil)
	defer svc.Close()
	h1, err := svc.Admit(spec.id, spec.build(), cfg, tenant.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ep1 := h1.Tenant().Epoch
	if _, err := svc.Retire(spec.id); err != nil {
		t.Fatal(err)
	}
	h2, err := svc.Admit(spec.id, spec.build(), cfg, tenant.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Tenant().Epoch == ep1 {
		t.Fatalf("re-admission reused epoch %d", ep1)
	}
	if _, err := svc.Registry().Check(spec.id, ep1); !errors.Is(err, tenant.ErrEpoch) {
		t.Fatalf("stale epoch check err = %v, want ErrEpoch", err)
	}
}
