package train

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/transport"
)

// sentJob is a served job that keeps a copy of the pull it sends every
// seat but the owner's, by the model's tensor index: sent[idx[i]] is its
// tensor i's slot of the last finished step.
type sentJob struct {
	*ps.Job
	idx  []int
	sent [][]byte
}

func (j *sentJob) FinishStep() ([][]byte, time.Duration, error) {
	pull, d, err := j.Job.FinishStep()
	for i, wire := range pull {
		j.sent[j.idx[i]] = append(j.sent[j.idx[i]][:0], wire...)
	}
	return pull, d, err
}

// wholeJob is a sentJob over the whole model.
func wholeJob(global *nn.Model, cfg ps.Config, sent [][]byte) *sentJob {
	idx := make([]int, len(global.Params()))
	for i := range idx {
		idx[i] = i
	}
	return &sentJob{Job: ps.NewJob(global, cfg), idx: idx, sent: sent}
}

func listen(t *testing.T) net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// relayTier builds a Config.Tier hook whose jobs record what they send in
// sent, and names the servers it starts by the errors they end with.
type relayTier func(t *testing.T, workers, steps int, sent [][]byte, served chan<- error) func(*nn.Model, ps.Config) (ps.Tier, error)

// relayTiers are the three ways a run reaches its aggregator: the
// in-process job, two shard servers streamed to over sockets, and the v1
// front door, whose seats are all sent the shared pull. The value is the
// number of servers the tier starts.
var relayTiers = map[string]struct {
	servers int
	build   relayTier
}{
	"in process": {0, func(t *testing.T, _, _ int, sent [][]byte, _ chan<- error) func(*nn.Model, ps.Config) (ps.Tier, error) {
		return func(global *nn.Model, cfg ps.Config) (ps.Tier, error) { return wholeJob(global, cfg, sent), nil }
	}},
	"2 shards streamed": {2, func(t *testing.T, workers, steps int, sent [][]byte, served chan<- error) func(*nn.Model, ps.Config) (ps.Tier, error) {
		return func(global *nn.Model, cfg ps.Config) (ps.Tier, error) {
			asn := shard.ForModel(global, 2)
			subs, err := shard.SubServers(global, cfg, asn)
			if err != nil {
				return nil, err
			}
			addrs := make([]string, len(subs))
			for s, sub := range subs {
				ln := listen(t)
				addrs[s] = ln.Addr().String()
				srv := transport.NewShardServer(ln, &sentJob{Job: sub, idx: asn.Tensors(s), sent: sent}, transport.ShardServerConfig{
					Shard: s, NumShards: 2, Workers: workers, Steps: steps, AssignmentHash: asn.Hash()})
				go func() { served <- srv.Serve() }()
			}
			return transport.DialTier(workers, true, func(w int) (transport.Seat, error) {
				return transport.DialShardedConfig(addrs, w, asn, transport.ShardClientConfig{})
			})
		}
	}},
	"v1 front door": {1, func(t *testing.T, workers, steps int, sent [][]byte, served chan<- error) func(*nn.Model, ps.Config) (ps.Tier, error) {
		return func(global *nn.Model, cfg ps.Config) (ps.Tier, error) {
			ln := listen(t)
			srv := transport.NewServer(ln, wholeJob(global, cfg, sent), workers, steps)
			go func() { served <- srv.Serve() }()
			return transport.DialTier(workers, false, func(w int) (transport.Seat, error) {
				return transport.DialTimeoutDialer(ln.Addr().String(), w, transport.Timeouts{}, nil)
			})
		}
	}},
}

// TestOwnerOnlyTensorsAreRelayed is the batch-norm half of the pull
// identity: the owner pushes the update of its owner-only tensors and the
// servers relay it. Over 200 of Run's own steps (computePush, then
// applyPull) on every tier of relayTiers and under every design, after
// every step each replica's owner-only tensors are the global model's bit
// for bit, and the owner's push of each is, byte for byte, what the
// servers sent every other seat in its slot and what the other workers
// were handed there.
func TestOwnerOnlyTensorsAreRelayed(t *testing.T) {
	const steps = 200
	designs := []Design{
		{Name: "float32", Scheme: compress.SchemeNone},
		{Name: "int8", Scheme: compress.SchemeInt8},
		{Name: "3lc", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.5, ZeroRun: true}},
		{Name: "3lc-nozre", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.0}},
		{Name: "stoch3qe", Scheme: compress.SchemeStoch3QE, Opts: compress.Options{Seed: 7}},
		{Name: "onebit", Scheme: compress.SchemeMQE1Bit},
		{Name: "topk", Scheme: compress.SchemeTopK, Opts: compress.Options{Fraction: 0.25, Seed: 9}},
		{Name: "localsteps", Scheme: compress.SchemeLocalSteps, Opts: compress.Options{Interval: 2}},
	}
	for _, d := range designs {
		for name, tier := range relayTiers {
			t.Run(d.Name+"/"+name, func(t *testing.T) {
				cfg := tinyConfig(d, steps)
				cfg.Workers, cfg.BatchPerWorker = 3, 4
				sent := make([][]byte, len(cfg.BuildModel().Params()))
				served := make(chan error, tier.servers)
				cfg.Tier = tier.build(t, cfg.Workers, steps, sent, served)
				r, err := newRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				owned := 0
				for step := 0; step < steps && !t.Failed(); step++ {
					pull, _, err := r.computePush(step)
					if err == nil {
						err = r.applyPull(pull)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					pushed := r.outs[ps.Owner].wires
					for i, p := range r.global.Params() {
						if !ps.OwnerOnly(p) {
							continue
						}
						owned++
						if !bytes.Equal(sent[i], pushed[i]) || !bytes.Equal(r.fullPull[i], pushed[i]) {
							t.Errorf("step %d: the owner pushed %d bytes of %s, the servers sent %d and the others were handed %d",
								step, len(pushed[i]), p.Name, len(sent[i]), len(r.fullPull[i]))
						}
						for w, wk := range r.workers {
							if !sameBits(wk.Model.Params()[i].W.Data(), p.W.Data()) {
								t.Errorf("step %d: worker %d's %s differs from the global model's", step, w, p.Name)
							}
						}
					}
				}
				r.close()
				for range tier.servers {
					if err := <-served; err != nil {
						t.Fatalf("serve: %v", err)
					}
				}
				if owned == 0 {
					t.Fatal("the model has no owner-only tensor")
				}
			})
		}
	}
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
