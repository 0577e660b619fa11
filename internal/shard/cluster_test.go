package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// allCodecs is one configuration per registered wire scheme — the
// equivalence tests must hold for every codec, since each has its own
// error-accumulation and seeding behavior.
var allCodecs = []struct {
	name string
	s    compress.Scheme
	o    compress.Options
}{
	{"float32", compress.SchemeNone, compress.Options{}},
	{"int8", compress.SchemeInt8, compress.Options{}},
	{"3lc", compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}},
	{"stoch3", compress.SchemeStoch3QE, compress.Options{Seed: 9}},
	{"mqe1bit", compress.SchemeMQE1Bit, compress.Options{}},
	{"topk", compress.SchemeTopK, compress.Options{Fraction: 0.3, Seed: 9}},
	{"localsteps", compress.SchemeLocalSteps, compress.Options{Interval: 2}},
}

func TestAllCodecsCoverRegistry(t *testing.T) {
	covered := map[compress.Scheme]bool{}
	for _, c := range allCodecs {
		covered[c.s] = true
	}
	// SchemePacked32 is no design but what a compressing design's exempt
	// tensors travel as: it is covered if the equivalence driver's model
	// puts it on a sharded tier's wires, which is looked at, not assumed
	// (TestShardedEquivalentToSinglePS holds every codec to the same).
	c := allCodecs[2]
	cfg := ps.Config{Scheme: c.s, Opts: c.o, Workers: 2, MinCompressElems: 1, Optimizer: opt.DefaultSGDConfig(2, 2)}
	pulls, _ := runPS(t, cfg, 2, 2, func(g *nn.Model) stepServer { return newRouter(t, g, cfg, 2) })
	covered[compress.SchemePacked32] = packedWires(pulls) > 0
	for _, s := range compress.RegisteredSchemes() {
		if !covered[s] {
			t.Errorf("registered scheme %v has no sharded-equivalence coverage", s)
		}
	}
}

// router is the sharded tier's serial oracle: the sub-jobs SubServers
// builds for the shard servers, driven from the caller's goroutine. A push
// is split by placement and each step's pulls are reassembled in global
// tensor order — what transport.ShardServer and ShardClient do over
// sockets, without the sockets.
type router struct {
	asn   Assignment
	subs  []*ps.Job
	local []int // global tensor index -> index in its shard's sub-job
}

// newRouter builds the router over SubServers(g, cfg, ForModel(g, shards))
// or fails the test.
func newRouter(t testing.TB, g *nn.Model, cfg ps.Config, shards int) *router {
	t.Helper()
	asn := ForModel(g, shards)
	subs, err := SubServers(g, cfg, asn)
	if err != nil {
		t.Fatalf("SubServers: %v", err)
	}
	r := &router{asn: asn, subs: subs, local: make([]int, len(asn.ShardOf))}
	for s := range subs {
		for k, gi := range asn.Tensors(s) {
			r.local[gi] = k
		}
	}
	return r
}

func (r *router) BeginStep() {
	for _, sub := range r.subs {
		sub.BeginStep()
	}
}

// BeginPush opens the worker's session on every sub-job.
func (r *router) BeginPush(worker int) ps.PushSession {
	se := &routedSession{r: r, subs: make([]ps.PushSession, len(r.subs))}
	for s, sub := range r.subs {
		se.subs[s] = sub.BeginPush(worker)
	}
	return se
}

// FinishStep finishes every sub-job and reassembles their pulls in global
// tensor order; the duration is the slowest shard's.
func (r *router) FinishStep() ([][]byte, time.Duration, error) {
	pull := make([][]byte, len(r.asn.ShardOf))
	var slowest time.Duration
	for s, sub := range r.subs {
		pulls, dur, err := sub.FinishStep()
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d: %w", s, err)
		}
		slowest = max(slowest, dur)
		for k, gi := range r.asn.Tensors(s) {
			pull[gi] = pulls[k]
		}
	}
	return pull, slowest, nil
}

// routedSession is one worker's push, split over the sub-jobs' sessions.
type routedSession struct {
	r    *router
	subs []ps.PushSession
}

// Set splits a whole-set push by placement.
func (se *routedSession) Set(wires [][]byte) error {
	parts := make([][][]byte, len(se.subs))
	for gi, s := range se.r.asn.ShardOf {
		parts[s] = append(parts[s], wires[gi])
	}
	for s, sub := range se.subs {
		if err := sub.Set(parts[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Tensor sends tensor gi to its shard's sub-job at its local index.
func (se *routedSession) Tensor(gi int, wire []byte) error {
	return se.subs[se.r.asn.ShardOf[gi]].Tensor(se.r.local[gi], wire)
}

// End ends every sub-session.
func (se *routedSession) End() error {
	for s, sub := range se.subs {
		if err := sub.End(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// stepServer is the driver-facing surface shared by ps.Job and router.
type stepServer interface {
	BeginStep()
	BeginPush(workerID int) ps.PushSession
	FinishStep() ([][]byte, time.Duration, error)
}

// addPush pushes one worker's whole wire set through a push session.
func addPush(srv stepServer, workerID int, wires [][]byte) error {
	push := srv.BeginPush(workerID)
	if err := push.Set(wires); err != nil {
		return err
	}
	return push.End()
}

// packedWires counts the SchemePacked32 wires in a run's pull log.
func packedWires(pullLog [][][]byte) (n int) {
	for _, pulls := range pullLog {
		for _, wire := range pulls {
			if len(wire) > 0 && compress.Scheme(wire[0]) == compress.SchemePacked32 {
				n++
			}
		}
	}
	return n
}

// runPS drives `steps` BSP steps of a small MLP against srv-built servers
// and returns every step's pull wire set (deep-copied) plus the final
// global weights.
func runPS(t *testing.T, cfg ps.Config, steps, workers int,
	mkServer func(global *nn.Model) stepServer) ([][][]byte, []float32) {
	t.Helper()
	return runPSHidden(t, cfg, steps, workers, []int{16, 10}, mkServer)
}

// runPSHidden is runPS on an MLP with the given hidden layer widths.
func runPSHidden(t *testing.T, cfg ps.Config, steps, workers int, hidden []int,
	mkServer func(global *nn.Model) stepServer) ([][][]byte, []float32) {
	t.Helper()
	const in, classes, batch = 12, 4, 6
	build := func() *nn.Model { return nn.NewMLP(in, hidden, classes, 7) }
	global := build()
	srv := mkServer(global)

	ws := make([]*ps.Worker, workers)
	rngs := make([]*tensor.RNG, workers)
	for w := range ws {
		m := build()
		m.CopyParamsFrom(global)
		ws[w] = ps.NewWorker(w, m, cfg)
		rngs[w] = tensor.NewRNG(1000 + uint64(w))
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
			if err := addPush(srv, w, wires[w]); err != nil {
				t.Fatalf("step %d push %d: %v", step, w, err)
			}
		}
		pulls, _, err := srv.FinishStep()
		if err != nil {
			t.Fatalf("step %d finish: %v", step, err)
		}
		cp := make([][]byte, len(pulls))
		for i, p := range pulls {
			cp[i] = append([]byte(nil), p...)
		}
		pullLog = append(pullLog, cp)
		for _, wk := range ws {
			if _, err := wk.ApplyPull(pulls); err != nil {
				t.Fatalf("step %d apply: %v", step, err)
			}
		}
	}

	var flat []float32
	for _, p := range global.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return pullLog, flat
}

// TestShardedEquivalentToSinglePS is the end-to-end equivalence gate: for
// every registered codec, the shard servers' sub-jobs, routed, must
// produce byte-identical pull wires every step and bit-identical final
// model state to the single parameter server.
func TestShardedEquivalentToSinglePS(t *testing.T) {
	const steps, workers = 4, 3
	for _, codec := range allCodecs {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", codec.name, shards), func(t *testing.T) {
				cfg := ps.Config{
					Scheme:           codec.s,
					Opts:             codec.o,
					Workers:          workers,
					MinCompressElems: 1,
					Optimizer:        opt.DefaultSGDConfig(workers, steps),
				}
				singlePulls, singleW := runPS(t, cfg, steps, workers, func(g *nn.Model) stepServer {
					return ps.NewJob(g, cfg)
				})
				shardPulls, shardW := runPS(t, cfg, steps, workers, func(g *nn.Model) stepServer {
					return newRouter(t, g, cfg, shards)
				})

				for s := range singlePulls {
					for i := range singlePulls[s] {
						if !bytes.Equal(singlePulls[s][i], shardPulls[s][i]) {
							t.Fatalf("step %d tensor %d: pull wires differ (%d vs %d bytes)",
								s, i, len(singlePulls[s][i]), len(shardPulls[s][i]))
						}
					}
				}
				if n := packedWires(shardPulls); (n > 0) != (codec.s != compress.SchemeNone) {
					t.Errorf("%d packed wires in the shards' pulls under design %v", n, codec.s)
				}
				if len(singleW) != len(shardW) {
					t.Fatalf("weight count mismatch: %d vs %d", len(singleW), len(shardW))
				}
				for i := range singleW {
					if singleW[i] != shardW[i] {
						t.Fatalf("final weight %d differs: %v vs %v", i, singleW[i], shardW[i])
					}
				}
			})
		}
	}
}

// tensorStreamAdapter routes whole-set pushes through the per-tensor
// ingestion API (a session fed by Tensor), so the existing equivalence
// driver exercises the overlapped-pipeline entry points.
type tensorStreamAdapter struct{ *router }

func (a tensorStreamAdapter) BeginPush(workerID int) ps.PushSession {
	return perTensorSession{a.router.BeginPush(workerID)}
}

type perTensorSession struct{ ps.PushSession }

func (p perTensorSession) Set(wires [][]byte) error {
	for gi, wire := range wires {
		if err := p.Tensor(gi, wire); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterPerTensorPushEquivalent pins the per-tensor streamed
// ingestion against the whole-set AddPush driver: byte-identical pull
// wires every step and bit-identical final weights, across shard counts.
// The deep row (50 tensors over 2 shards) keeps the name it had when it
// overran an in-process shard's request queue.
func TestClusterPerTensorPushEquivalent(t *testing.T) {
	const steps, workers = 4, 3
	deep := make([]int, 12) // 50 tensors: 12 x (fc W, b, bn gamma, beta) + head
	for i := range deep {
		deep[i] = 16
	}
	type row struct {
		codec, shards int // codec indexes allCodecs
		hidden        []int
		suffix        string // of the subtest name
	}
	var rows []row
	for _, codec := range []int{0, 2} { // float32 and 3lc from allCodecs
		for _, shards := range []int{1, 3} {
			rows = append(rows, row{codec, shards, []int{16, 10}, ""})
		}
	}
	rows = append(rows, row{2, 2, deep, "/queue-full"})
	for _, r := range rows {
		c := allCodecs[r.codec]
		t.Run(fmt.Sprintf("%s/shards=%d%s", c.name, r.shards, r.suffix), func(t *testing.T) {
			cfg := ps.Config{
				Scheme:           c.s,
				Opts:             c.o,
				Workers:          workers,
				MinCompressElems: 1,
				Optimizer:        opt.DefaultSGDConfig(workers, steps),
			}
			wholePulls, wholeW := runPSHidden(t, cfg, steps, workers, r.hidden, func(g *nn.Model) stepServer {
				return newRouter(t, g, cfg, r.shards)
			})
			streamPulls, streamW := runPSHidden(t, cfg, steps, workers, r.hidden, func(g *nn.Model) stepServer {
				return tensorStreamAdapter{newRouter(t, g, cfg, r.shards)}
			})

			for s := range wholePulls {
				for i := range wholePulls[s] {
					if !bytes.Equal(wholePulls[s][i], streamPulls[s][i]) {
						t.Fatalf("step %d tensor %d: pull wires differ", s, i)
					}
				}
			}
			for i := range wholeW {
				if wholeW[i] != streamW[i] {
					t.Fatalf("final weight %d differs: %v vs %v", i, wholeW[i], streamW[i])
				}
			}
		})
	}
}

// TestClusterMoreShardsThanTensors exercises empty shards (the assignment
// leaves high shard ids without tensors when the model is small).
func TestClusterMoreShardsThanTensors(t *testing.T) {
	cfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.5, ZeroRun: true},
		Workers:          2,
		MinCompressElems: 1,
		Optimizer:        opt.DefaultSGDConfig(2, 3),
	}
	_, singleW := runPS(t, cfg, 3, 2, func(g *nn.Model) stepServer { return ps.NewJob(g, cfg) })
	_, shardW := runPS(t, cfg, 3, 2, func(g *nn.Model) stepServer { return newRouter(t, g, cfg, 32) })
	for i := range singleW {
		if singleW[i] != shardW[i] {
			t.Fatalf("weight %d differs with 32 shards: %v vs %v", i, singleW[i], shardW[i])
		}
	}
}
