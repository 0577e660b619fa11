package transport

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tenant"
	"threelc/internal/tensor"
)

// muxJob is one tenant's workload in the multi-tenant TCP tests.
type muxJob struct {
	id     tenant.ID
	tagged bool // false = legacy untagged client mapping to the default tenant
	scheme compress.Scheme
	opts   compress.Options
	mseed  uint64
}

func (j muxJob) config(workers, steps int) ps.Config {
	return ps.Config{
		Scheme:           j.scheme,
		Opts:             j.opts,
		Workers:          workers,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(workers, steps),
	}
}

func (j muxJob) build() *nn.Model { return nn.NewMLP(12, []int{16, 10}, 4, j.mseed) }

// runJobWorkers drives all of one job's workers over pushPull clients and
// returns the first worker error.
func runJobWorkers(t *testing.T, j muxJob, cfg ps.Config, global *nn.Model,
	workers, steps int, dial func(w int) (*ShardClient, error)) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := dial(w)
			if err != nil {
				t.Errorf("tenant %d worker %d dial: %v", j.id, w, err)
				return
			}
			defer cl.Close()
			m := j.build()
			m.CopyParamsFrom(global)
			wk := ps.NewWorker(w, m, cfg)
			rng := tensor.NewRNG(1000 + uint64(w))
			for step := 0; step < steps; step++ {
				x := tensor.New(6, 12)
				tensor.FillNormal(x, 1, rng)
				labels := make([]int, 6)
				for i := range labels {
					labels[i] = (step + w + i) % 4
				}
				wk.Model.TrainStep(x, labels)
				wires, _ := wk.CompressGrads()
				pull, err := cl.PushPull(step, wires)
				if err != nil {
					t.Errorf("tenant %d worker %d step %d: %v", j.id, w, step, err)
					return
				}
				if _, err := wk.ApplyPull(pull); err != nil {
					t.Errorf("tenant %d worker %d step %d apply: %v", j.id, w, step, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// jobReference runs j's workload through the in-process single parameter
// server and returns the final global weights.
func jobReference(t *testing.T, j muxJob, workers, steps int) []float32 {
	t.Helper()
	cfg := j.config(workers, steps)
	global := j.build()
	srv := ps.NewJob(global, cfg)
	ws := make([]*ps.Worker, workers)
	rngs := make([]*tensor.RNG, workers)
	for w := range ws {
		m := j.build()
		m.CopyParamsFrom(global)
		ws[w] = ps.NewWorker(w, m, cfg)
		rngs[w] = tensor.NewRNG(1000 + uint64(w))
	}
	for step := 0; step < steps; step++ {
		srv.BeginStep()
		wires := make([][][]byte, workers)
		for w, wk := range ws {
			x := tensor.New(6, 12)
			tensor.FillNormal(x, 1, rngs[w])
			labels := make([]int, 6)
			for i := range labels {
				labels[i] = (step + w + i) % 4
			}
			wk.Model.TrainStep(x, labels)
			wires[w], _ = wk.CompressGrads()
		}
		for w := range ws {
			if _, err := srv.AddPush(w, wires[w]); err != nil {
				t.Fatal(err)
			}
		}
		pulls, _, err := srv.FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, wk := range ws {
			if _, err := wk.ApplyPull(pulls); err != nil {
				t.Fatal(err)
			}
		}
	}
	var flat []float32
	for _, p := range global.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return flat
}

// TestMuxShardServerMultiTenantTCP is the multi-tenant transport gate:
// three jobs — two tagged tenants plus one legacy UNTAGGED client mapping
// to the default tenant — run concurrently over one shared 2-shard tier
// behind multiplexed TCP endpoints, and every job's final server-side
// model must be bit-identical to its in-process single-PS run.
func TestMuxShardServerMultiTenantTCP(t *testing.T) {
	const workers, steps, shards = 2, 3, 2
	jobs := []muxJob{
		{id: tenant.Default, tagged: false, scheme: compress.SchemeThreeLC, opts: compress.Options{Sparsity: 1.5, ZeroRun: true}, mseed: 7},
		{id: 4, tagged: true, scheme: compress.SchemeInt8, mseed: 8},
		{id: 9, tagged: true, scheme: compress.SchemeTopK, opts: compress.Options{Fraction: 0.3, Seed: 9}, mseed: 9},
	}
	to := Timeouts{Read: 30 * time.Second, Write: 10 * time.Second}

	svc := shard.NewService(shard.Config{Shards: shards}, tenant.NewRegistry(len(jobs)))
	defer svc.Close()
	globals := make([]*nn.Model, len(jobs))
	epochs := make([]tenant.Epoch, len(jobs))
	for i, j := range jobs {
		globals[i] = j.build()
		h, err := svc.Admit(j.id, globals[i], j.config(workers, steps), tenant.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		epochs[i] = h.Tenant().Epoch
	}

	addrs := make([]string, shards)
	srvErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		go func(s int) {
			srvErr <- NewMuxShardServer(ln, svc, MuxShardServerConfig{
				Shard:    s,
				Tenants:  len(jobs),
				Timeouts: to,
			}).Serve()
		}(s)
	}

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j muxJob) {
			defer wg.Done()
			ccfg := ShardClientConfig{Timeouts: to}
			if j.tagged {
				ccfg.Tenant = uint32(j.id)
				ccfg.Epoch = uint32(epochs[i])
			}
			cfg := j.config(workers, steps)
			runJobWorkers(t, j, cfg, globals[i], workers, steps, func(w int) (*ShardClient, error) {
				return DialShardedConfig(addrs, w, shard.ForModel(j.build(), shards), ccfg)
			})
		}(i, j)
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		if err := <-srvErr; err != nil {
			t.Fatalf("mux serve: %v", err)
		}
	}

	for i, j := range jobs {
		want := jobReference(t, j, workers, steps)
		var got []float32
		for _, p := range globals[i].Params() {
			got = append(got, p.W.Data()...)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("tenant %d weight %d differs from single-PS reference: %v != %v", j.id, k, got[k], want[k])
			}
		}
	}
}

// TestMuxShardServerChecksumPerWorker pins two properties of the
// multiplexed tier's negotiation: checksummed and plain clients coexist on
// one mux endpoint because every stage is per-WORKER, carried on each
// hello, not per-listener; and a resilient client is refused outright —
// reconnect-and-replay seats are a dedicated-listener feature, and silently
// accepting one would hand it a seat that cannot be reacquired. Both jobs
// must still land bit-identical to their single-PS references.
func TestMuxShardServerChecksumPerWorker(t *testing.T) {
	const workers, steps, shards = 2, 3, 2
	jobs := []muxJob{
		{id: tenant.Default, tagged: false, scheme: compress.SchemeThreeLC, opts: compress.Options{Sparsity: 1.5, ZeroRun: true}, mseed: 7},
		{id: 5, tagged: true, scheme: compress.SchemeStoch3QE, opts: compress.Options{Seed: 9}, mseed: 8},
	}
	checksummed := []bool{false, true}
	to := Timeouts{Read: 30 * time.Second, Write: 10 * time.Second}

	svc := shard.NewService(shard.Config{Shards: shards}, tenant.NewRegistry(len(jobs)))
	defer svc.Close()
	globals := make([]*nn.Model, len(jobs))
	epochs := make([]tenant.Epoch, len(jobs))
	for i, j := range jobs {
		globals[i] = j.build()
		h, err := svc.Admit(j.id, globals[i], j.config(workers, steps), tenant.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		epochs[i] = h.Tenant().Epoch
	}

	addrs := make([]string, shards)
	srvErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		go func(s int) {
			srvErr <- NewMuxShardServer(ln, svc, MuxShardServerConfig{
				Shard:    s,
				Tenants:  len(jobs),
				Timeouts: to,
			}).Serve()
		}(s)
	}

	// A resilient client must be turned away at the hello. The mux drops
	// the connection; the client's redial budget burns down against the
	// same refusal and the failure surfaces from PushPull.
	res, err := DialShardedConfig(addrs, 0, shard.ForModel(jobs[1].build(), shards),
		ShardClientConfig{
			Timeouts:  Timeouts{Read: time.Second, Write: time.Second},
			Tenant:    uint32(jobs[1].id),
			Epoch:     uint32(epochs[1]),
			Checksum:  true,
			Resilient: true,
			Retry:     RetryPolicy{MaxAttempts: 2, Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
		})
	if err == nil {
		wk := ps.NewWorker(0, jobs[1].build(), jobs[1].config(workers, steps))
		wk.Model.TrainStep(tensor.New(6, 12), make([]int, 6))
		wires, _ := wk.CompressGrads()
		if _, err := res.PushPull(0, wires); err == nil {
			t.Error("resilient client completed a push/pull through the mux tier")
		}
		res.Close()
	}

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j muxJob) {
			defer wg.Done()
			ccfg := ShardClientConfig{Timeouts: to, Checksum: checksummed[i]}
			if j.tagged {
				ccfg.Tenant = uint32(j.id)
				ccfg.Epoch = uint32(epochs[i])
			}
			cfg := j.config(workers, steps)
			runJobWorkers(t, j, cfg, globals[i], workers, steps, func(w int) (*ShardClient, error) {
				return DialShardedConfig(addrs, w, shard.ForModel(j.build(), shards), ccfg)
			})
		}(i, j)
	}
	wg.Wait()
	for s := 0; s < shards; s++ {
		if err := <-srvErr; err != nil {
			t.Fatalf("mux serve: %v", err)
		}
	}

	for i, j := range jobs {
		want := jobReference(t, j, workers, steps)
		var got []float32
		for _, p := range globals[i].Params() {
			got = append(got, p.W.Data()...)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("tenant %d (checksum=%v) weight %d differs from single-PS reference: %v != %v",
					j.id, checksummed[i], k, got[k], want[k])
			}
		}
	}
}

// TestMuxShardServerRejectsUnknownTenant pins hello-time admission: a
// client tagged with an unadmitted tenant id must be refused while the
// admitted tenants' jobs proceed untouched.
func TestMuxShardServerRejectsUnknownTenant(t *testing.T) {
	const workers, steps = 1, 2
	j := muxJob{id: 4, tagged: true, scheme: compress.SchemeNone, mseed: 7}
	to := Timeouts{Read: 5 * time.Second, Write: 5 * time.Second}

	svc := shard.NewService(shard.Config{Shards: 1}, tenant.NewRegistry(2))
	defer svc.Close()
	global := j.build()
	h, err := svc.Admit(j.id, global, j.config(workers, steps), tenant.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- NewMuxShardServer(ln, svc, MuxShardServerConfig{Tenants: 1, Timeouts: to}).Serve()
	}()

	// The impostor's hello names a tenant the registry never admitted. The
	// server drops the connection; the client surfaces it as a broken pull.
	imp, err := DialShardedConfig([]string{addr}, 0, shard.ForModel(j.build(), 1),
		ShardClientConfig{Timeouts: Timeouts{Read: time.Second, Write: time.Second}, Tenant: 99, Epoch: 1})
	if err == nil {
		wk := ps.NewWorker(0, j.build(), j.config(workers, steps))
		wk.Model.TrainStep(tensor.New(6, 12), make([]int, 6))
		wires, _ := wk.CompressGrads()
		if _, err := imp.PushPull(0, wires); err == nil {
			t.Error("unadmitted tenant completed a push/pull")
		}
		imp.Close()
	}

	// The real tenant still trains to completion.
	cfg := j.config(workers, steps)
	runJobWorkers(t, j, cfg, global, workers, steps, func(w int) (*ShardClient, error) {
		return DialShardedConfig([]string{addr}, w, shard.ForModel(j.build(), 1),
			ShardClientConfig{Timeouts: to, Tenant: uint32(j.id), Epoch: uint32(h.Tenant().Epoch)})
	})
	if err := <-srvErr; err != nil {
		t.Fatalf("mux serve: %v", err)
	}
}

// TestMuxShardServerReturnsOnDeadListener is the regression test for the
// mux accept loop treating a closed listener like a bad handshake and
// retrying Accept forever: with the listener closed before the last
// tenant's session forms, Serve must return, naming the listener failure.
func TestMuxShardServerReturnsOnDeadListener(t *testing.T) {
	j := muxJob{id: 4, tagged: true, scheme: compress.SchemeNone, mseed: 7}
	svc := shard.NewService(shard.Config{Shards: 1}, tenant.NewRegistry(2))
	defer svc.Close()
	h, err := svc.Admit(j.id, j.build(), j.config(2, 1), tenant.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- NewMuxShardServer(ln, svc, MuxShardServerConfig{Tenants: 1}).Serve() }()

	// One of the tenant's two workers takes its seat; the session is still
	// forming when the listener dies.
	cl, err := DialShardedConfig([]string{ln.Addr().String()}, 0, shard.ForModel(j.build(), 1),
		ShardClientConfig{Tenant: uint32(j.id), Epoch: uint32(h.Tenant().Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ln.Close()
	select {
	case err := <-srvErr:
		if !errors.Is(err, errListener) {
			t.Fatalf("Serve() = %v, want the listener failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still running 10s after its listener closed")
	}
}

// TestReplicaRejectsCrossTenantPush is the regression test for the
// straggler dedupe identity, on the seat whose pushes are replayed by
// design — a standby's: replay deduplication is keyed on (tenant, worker,
// step), so a push from ANOTHER tenant that happens to carry the same
// worker and step numbers must be rejected outright — under the old
// (worker, step) identity it would have been silently deduplicated or,
// worse, applied into the wrong job's state.
func TestReplicaRejectsCrossTenantPush(t *testing.T) {
	const tenID, tenEpoch = 7, 3
	j := muxJob{id: tenID, scheme: compress.SchemeNone, mseed: 7}
	cfg := j.config(1, 1)
	model := j.build()
	asn := shard.ForModel(model, 1)
	subs := mustSubServers(t, model, cfg, asn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- NewShardServer(ln, subs[0], ShardServerConfig{
			Workers:        1,
			Steps:          1,
			AssignmentHash: asn.Hash(),
			Timeouts:       Timeouts{Read: 5 * time.Second, Write: 5 * time.Second},
			Tenant:         tenID,
			Epoch:          tenEpoch,
		}).Serve()
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c))

	// Take the standby seat under the endpoint's own job identity...
	hello := AppendShardHeader(nil, ShardHeader{
		Version: ShardWireVersion, Flags: FlagStandby, Tenant: tenID, Epoch: tenEpoch,
	})
	var hb [4]byte
	le.PutUint32(hb[:], asn.Hash())
	hello = append(hello, hb[:]...)
	if err := WriteFrame(rw, MsgShardHello, hello); err != nil {
		t.Fatal(err)
	}
	// ...then push the same (worker 0, step 0) tagged as a DIFFERENT
	// tenant, as a recycled-id worker from a retired job would.
	wk := ps.NewWorker(0, j.build(), cfg)
	wk.Model.TrainStep(tensor.New(6, 12), make([]int, 6))
	wires, _ := wk.CompressGrads()
	push := AppendShardHeader(nil, ShardHeader{
		Version: ShardWireVersion, Tenant: tenID + 1, Epoch: tenEpoch,
	})
	push = AppendWireSet(push, wires)
	if err := WriteFrame(rw, MsgShardPush, push); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}

	err = <-srvErr
	if err == nil {
		t.Fatal("standby accepted a push from another tenant")
	}
	if !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("rejection does not name the tenant mismatch: %v", err)
	}
}

// TestShardHeaderTenantExtension pins the wire format of the FlagTenant
// extension and — critically — that untagged headers remain byte-for-byte
// the pre-multi-tenant format, so v1-era peers interoperate unchanged.
func TestShardHeaderTenantExtension(t *testing.T) {
	legacy := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Step: 9, Worker: 2})
	if len(legacy) != ShardHeaderLen {
		t.Fatalf("untagged header is %d bytes, want the legacy %d", len(legacy), ShardHeaderLen)
	}
	h, rest, err := ParseShardHeader(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tenant != 0 || h.Epoch != 0 || len(rest) != 0 {
		t.Fatalf("untagged header parsed as %+v rest=%d", h, len(rest))
	}

	tagged := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Shard: 3, Step: 9, Worker: 2, Tenant: 41, Epoch: 6})
	if len(tagged) != ShardHeaderLen+shardTenantExtLen {
		t.Fatalf("tagged header is %d bytes, want %d", len(tagged), ShardHeaderLen+shardTenantExtLen)
	}
	h, rest, err = ParseShardHeader(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&FlagTenant == 0 || h.Tenant != 41 || h.Epoch != 6 || len(rest) != 0 {
		t.Fatalf("tagged header parsed as %+v rest=%d", h, len(rest))
	}
}
