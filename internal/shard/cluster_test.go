package shard

import (
	"bytes"
	"fmt"
	"runtime"
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
	cfg := ps.Config{Scheme: c.s, Opts: c.o, Workers: 2, MinCompressElems: 1, Parallelism: 1, Optimizer: opt.DefaultSGDConfig(2, 2)}
	var cl *JobHandle
	pulls, _ := runPS(t, cfg, 2, 2, func(g *nn.Model) stepServer {
		cl = mustCluster(t, g, cfg, Config{Shards: 2})
		return cl
	})
	cl.Close()
	covered[compress.SchemePacked32] = packedWires(pulls) > 0
	for _, s := range compress.RegisteredSchemes() {
		if !covered[s] {
			t.Errorf("registered scheme %v has no sharded-equivalence coverage", s)
		}
	}
}

// mustCluster builds a dedicated tier or fails the test.
func mustCluster(t testing.TB, g *nn.Model, cfg ps.Config, sc Config) *JobHandle {
	t.Helper()
	cl, err := NewCluster(g, cfg, sc)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

// stepServer is the driver-facing surface shared by ps.Job and JobHandle.
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
// every registered codec, a multi-shard cluster must produce byte-
// identical pull wires every step and bit-identical final model state to
// the single parameter server.
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
					Parallelism:      1,
					Optimizer:        opt.DefaultSGDConfig(workers, steps),
				}
				singlePulls, singleW := runPS(t, cfg, steps, workers, func(g *nn.Model) stepServer {
					return ps.NewJob(g, cfg)
				})
				var cl *JobHandle
				shardPulls, shardW := runPS(t, cfg, steps, workers, func(g *nn.Model) stepServer {
					cl = mustCluster(t, g, cfg, Config{Shards: shards})
					return cl
				})
				defer cl.Close()

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
type tensorStreamAdapter struct{ *JobHandle }

func (a tensorStreamAdapter) BeginPush(workerID int) ps.PushSession {
	return perTensorSession{a.JobHandle.BeginPush(workerID)}
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
// The deep row puts more per-tensor requests on each shard per step than
// its queue holds, so the driver's sends block on a full queue (always at
// GOMAXPROCS=1, where the shards run only once the driver blocks):
// backpressure may delay a step, never change its state.
func TestClusterPerTensorPushEquivalent(t *testing.T) {
	const steps, workers = 4, 3
	deep := make([]int, 12) // 50 tensors: 12 x (fc W, b, bn gamma, beta) + head
	for i := range deep {
		deep[i] = 16
	}
	type row struct {
		codec, shards int // codec indexes allCodecs
		hidden        []int
		full          bool // each shard takes more requests a step than its queue holds
	}
	var rows []row
	for _, codec := range []int{0, 2} { // float32 and 3lc from allCodecs
		for _, shards := range []int{1, 3} {
			rows = append(rows, row{codec, shards, []int{16, 10}, false})
		}
	}
	rows = append(rows, row{2, 2, deep, true})
	for _, r := range rows {
		c := allCodecs[r.codec]
		name := fmt.Sprintf("%s/shards=%d", c.name, r.shards)
		if r.full {
			name += "/queue-full"
		}
		t.Run(name, func(t *testing.T) {
			cfg := ps.Config{
				Scheme:           c.s,
				Opts:             c.o,
				Workers:          workers,
				MinCompressElems: 1,
				Parallelism:      1,
				Optimizer:        opt.DefaultSGDConfig(workers, steps),
			}
			var wholeCl *JobHandle
			wholePulls, wholeW := runPSHidden(t, cfg, steps, workers, r.hidden, func(g *nn.Model) stepServer {
				wholeCl = mustCluster(t, g, cfg, Config{Shards: r.shards})
				return wholeCl
			})
			defer wholeCl.Close()
			var streamCl *JobHandle
			streamPulls, streamW := runPSHidden(t, cfg, steps, workers, r.hidden, func(g *nn.Model) stepServer {
				streamCl = mustCluster(t, g, cfg, Config{Shards: r.shards})
				return tensorStreamAdapter{streamCl}
			})
			defer streamCl.Close()
			if r.full {
				for sh := 0; sh < r.shards; sh++ {
					if n := workers * len(streamCl.idxs[sh]); n <= queueDepth {
						t.Fatalf("shard %d takes %d per-tensor requests a step, want more than its queue's %d", sh, n, queueDepth)
					}
				}
			}

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
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(2, 3),
	}
	_, singleW := runPS(t, cfg, 3, 2, func(g *nn.Model) stepServer { return ps.NewJob(g, cfg) })
	var cl *JobHandle
	_, shardW := runPS(t, cfg, 3, 2, func(g *nn.Model) stepServer {
		cl = mustCluster(t, g, cfg, Config{Shards: 32})
		return cl
	})
	defer cl.Close()
	for i := range singleW {
		if singleW[i] != shardW[i] {
			t.Fatalf("weight %d differs with 32 shards: %v vs %v", i, singleW[i], shardW[i])
		}
	}
}

// TestClusterThroughputScalesWithShards measures aggregate push/pull
// round-trip throughput at 1 vs 4 shards with each shard pinned to a
// serial codec (modelling one single-core PS node per shard). Gated on
// GOMAXPROCS>=4: on smaller hosts sharding cannot add CPU and the test
// skips.
func TestClusterThroughputScalesWithShards(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: shard scaling needs spare cores", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const workers, steps = 2, 12
	stepsPerSec := func(shards int) float64 {
		cfg := ps.Config{
			Scheme:           compress.SchemeThreeLC,
			Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
			Workers:          workers,
			MinCompressElems: 1,
			Parallelism:      1,
			Optimizer:        opt.DefaultSGDConfig(workers, steps),
		}
		global := nn.NewMLP(256, []int{512, 512, 512, 512}, 32, 7)
		cl := mustCluster(t, global, cfg, Config{Shards: shards})
		defer cl.Close()
		wires := make([][][]byte, workers)
		for w := 0; w < workers; w++ {
			m := nn.NewMLP(256, []int{512, 512, 512, 512}, 32, 7)
			m.CopyParamsFrom(global)
			wk := ps.NewWorker(w, m, cfg)
			rng := tensor.NewRNG(uint64(w) + 5)
			x := tensor.New(4, 256)
			tensor.FillNormal(x, 1, rng)
			wk.Model.TrainStep(x, []int{0, 1, 2, 3})
			wires[w], _ = wk.CompressGrads()
		}
		// Warm up buffer capacities, then measure.
		for i := 0; i < 2; i++ {
			cl.BeginStep()
			for w := 0; w < workers; w++ {
				addPush(cl, w, wires[w])
			}
			if _, _, err := cl.FinishStep(); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < steps; i++ {
			cl.BeginStep()
			for w := 0; w < workers; w++ {
				addPush(cl, w, wires[w])
			}
			if _, _, err := cl.FinishStep(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(steps) / time.Since(start).Seconds()
	}
	one := stepsPerSec(1)
	four := stepsPerSec(4)
	t.Logf("steps/sec: 1 shard %.1f, 4 shards %.1f (%.2fx)", one, four, four/one)
	if four < 1.3*one {
		t.Errorf("4-shard throughput %.1f steps/s is not >=1.3x the 1-shard %.1f", four, one)
	}
}
