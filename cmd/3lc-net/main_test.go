package main

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/train"
)

// testOptions are the flag defaults main registers, at test scale: three
// workers, so a seat out of order changes a sum (a + b + c in another order
// rounds differently; with two it would not).
func testOptions() options {
	return options{
		designName: "3lc", sparsity: 1.0, addr: "127.0.0.1:0",
		workers: 3, steps: 6, batch: 8,
		shards: 1,
	}
}

func TestCheckRefusesFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		set  func(o *options)
		want string // substring of the refusal; "" = accepted
	}{
		{"defaults", func(o *options) {}, ""},
		{"shards", func(o *options) { o.shards = 2 }, ""},
		{"unknown design", func(o *options) { o.designName = "float16" }, "unknown design"},
		{"chaos ignores design", func(o *options) { o.chaosSoak, o.designName = true, "float16" }, ""},
	}
	for _, c := range cases {
		o := testOptions()
		c.set(&o)
		err := o.check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want a refusal containing %q", c.name, err, c.want)
		}
	}

	o := testOptions()
	o.shards = 0
	if err := o.check(); err != nil {
		t.Fatal(err)
	}
	if o.shards != 1 {
		t.Errorf("defaults: shards %d, want 1", o.shards)
	}
}

// trajectory is what two runs of one job must agree on bit for bit.
type trajectory struct {
	losses  []uint64
	weights []uint32
}

func trajectoryOf(res *train.Result, global *nn.Model) trajectory {
	var tr trajectory
	for _, sr := range res.StepRecords {
		tr.losses = append(tr.losses, math.Float64bits(sr.Loss))
	}
	for _, p := range global.Params() {
		for _, v := range p.W.Data() {
			tr.weights = append(tr.weights, math.Float32bits(v))
		}
	}
	return tr
}

// TestDialedTiersMatchInProcess is the oracle the one-driver design makes
// possible: the same train.Config, run by the same train.Run, over
// loopback listeners — one shard, two shards, and two shards streamed on
// one processor — ends with the global weights and per-step losses of the
// in-process run, bit for bit, for 3LC and for float32. A dialed tier that
// sent a seat's push under another seat, dropped one or sent one twice
// would change a gradient sum (or hang the servers' barrier) and with it
// every later bit. Every exchange is a stream of runs; the streamed row
// pins it to one processor, as the benchmark runs, where the compressor is
// usually ahead of the wire and a push is one run a shard, while the other
// rows let the idle-producer flush split pushes into more runs.
func TestDialedTiersMatchInProcess(t *testing.T) { dialedMatchesInProcess(t, 3) }

// TestTwoSeatDialedTiersMatchInProcess is the oracle at two seats: the
// owner and one other worker, which over a dialed tier is handed the pull
// the owner completes with its own pushes (ps.Worker.Complete) — a wrong bit
// there changes worker 1's next gradient, and from it every later bit.
func TestTwoSeatDialedTiersMatchInProcess(t *testing.T) { dialedMatchesInProcess(t, 2) }

func dialedMatchesInProcess(t *testing.T, workers int) {
	topologies := []struct {
		name    string
		set     func(o *options)
		oneProc bool
	}{
		{"1 shard", func(o *options) {}, false},
		{"2 shards", func(o *options) { o.shards = 2 }, false},
		{"2 shards streamed", func(o *options) { o.shards = 2 }, true},
	}
	for _, design := range []string{"3lc", "float32"} {
		o := testOptions()
		o.designName, o.workers = design, workers
		if err := o.check(); err != nil {
			t.Fatal(err)
		}
		cfg := o.job(o.design, 1000, 300, 1)
		var global *nn.Model
		cfg.Tier = func(g *nn.Model, psCfg ps.Config) (ps.Tier, error) {
			global = g
			return ps.NewJob(g, psCfg), nil
		}
		res, err := train.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := trajectoryOf(res, global)

		for _, topo := range topologies {
			t.Run(design+"/"+topo.name, func(t *testing.T) {
				if topo.oneProc {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				}
				o := testOptions()
				o.designName, o.workers = design, workers
				topo.set(&o)
				if err := o.check(); err != nil {
					t.Fatal(err)
				}
				cfg, f, err := o.flat()
				if err != nil {
					t.Fatal(err)
				}
				res, err := train.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.drain(); err != nil {
					t.Fatal(err)
				}
				got := trajectoryOf(res, f.global)
				if !slices.Equal(got.losses, want.losses) {
					t.Errorf("per-step losses differ from the in-process run")
				}
				if !slices.Equal(got.weights, want.weights) {
					t.Errorf("final global weights differ from the in-process run")
				}
				if virt := res.TimeAt(netsim.Gbps1); res.WallSec <= 0 || virt <= 0 {
					t.Errorf("clocks: wall %v s, virtual %v s; want both measured", res.WallSec, virt)
				}
				if res.Shards != o.shards {
					t.Errorf("Result.Shards = %d, want %d", res.Shards, o.shards)
				}
				// The tier's shard count divides the virtual server NIC's load.
				if o.shards == 2 && res.Net.Servers != 2 {
					t.Errorf("netsim Servers = %d over 2 shards, want 2", res.Net.Servers)
				}
				if push, _ := f.srvs.traffic(); push == 0 {
					t.Errorf("traffic: push %d", push)
				}
			})
		}
	}
}

// TestDialedTierRefusals: what a dialed tier cannot do is an error from
// Run's set-up — not a hang on the servers' barrier, not a checkpoint that
// silently leaves the servers' state out.
func TestDialedTierRefusals(t *testing.T) {
	refusals := []struct {
		name string
		set  func(cfg *train.Config)
		want string
	}{
		{"checkpoint", func(cfg *train.Config) {
			cfg.CheckpointPath, cfg.CheckpointEvery = filepath.Join(t.TempDir(), "ckpt"), 2
		}, "holds no state"},
		{"resume", func(cfg *train.Config) { cfg.ResumeFrom = filepath.Join(t.TempDir(), "ckpt") }, "holds no state"},
		{"seat count", func(cfg *train.Config) { cfg.Workers = 2 }, "3 seats"},
	}
	for _, r := range refusals {
		for _, shards := range []int{1, 2} {
			o := testOptions()
			o.shards = shards
			if err := o.check(); err != nil {
				t.Fatal(err)
			}
			cfg, f, err := o.flat()
			if err != nil {
				t.Fatal(err)
			}
			r.set(&cfg)
			done := make(chan error, 1)
			go func() {
				_, err := train.Run(cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), r.want) {
					t.Errorf("%s over %d shard(s): got %v, want a refusal containing %q", r.name, shards, err, r.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s over %d shard(s): Run hangs instead of refusing", r.name, shards)
			}
			f.drain() // the refused run hung up on its servers; their complaint is not the test's
		}
	}
}
