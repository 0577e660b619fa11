// Command 3lc-net runs distributed training over REAL TCP connections on
// this machine. It is flags → listeners → train.Run: every mode starts its
// servers behind loopback listeners and hands train.Run a Tier hook that
// dials them (transport.DialTier), so the driver that produces the paper's
// tables in virtual time is the one pushing compressed gradients through
// actual sockets here, and the run reports the real bytes that crossed
// them.
//
//	3lc-net -design 3lc -sparsity 1.75 -workers 4 -steps 50
//	3lc-net -design 3lc -workers 4 -steps 50 -shards 2   # sharded PS tier
//	3lc-net -chaos -chaos-seed 7 -shards 2 -workers 2 -steps 6  # chaos soak
//
// The modes (README has the prose for each):
//
//   - -shards N partitions the model's tensors across N parameter-server
//     shards, each with its own listener; every worker holds one multiplexed
//     connection per shard and streams each tensor on it as its compressor
//     finishes, a run of tensors to a frame.
//   - -chaos trains every registered codec twice — on an in-process server,
//     and over TCP with internal/chaos injecting faults on every listener and
//     dial against the full defense stack (CRC-32C frames, resilient
//     reconnect-and-replay, seeded retry backoff) — and exits non-zero unless
//     the two final model states are BIT-IDENTICAL for every codec and at
//     least one fault fired. It ignores -design.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"time"

	"threelc/internal/chaos"
	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/train"
	"threelc/internal/transport"
)

// options are the command's flags, and what check derives from them.
type options struct {
	designName, addr      string
	sparsity              float64
	workers, steps, batch int
	shards                int
	chaosSoak             bool
	netTimeout            time.Duration
	chaosSeed             uint64

	design train.Design // -design, -sparsity
}

func main() {
	var o options
	flag.StringVar(&o.designName, "design", "3lc", "design: float32 | int8 | 3lc")
	flag.Float64Var(&o.sparsity, "sparsity", 1.0, "3LC sparsity multiplier")
	flag.IntVar(&o.workers, "workers", 4, "number of workers")
	flag.IntVar(&o.steps, "steps", 50, "training steps")
	flag.IntVar(&o.batch, "batch", 16, "per-worker batch size")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	flag.IntVar(&o.shards, "shards", 1, "parameter-server shard count; shard s listens on -addr's port + s (each shard gets its own listener; workers multiplex)")
	flag.DurationVar(&o.netTimeout, "net-timeout", 0, "per-frame read/write deadline on worker connections (failure detector for dead servers) and write deadline on the servers' connections; 0 disables")
	flag.BoolVar(&o.chaosSoak, "chaos", false, "chaos soak: train every codec clean (in-process) and under deterministic fault injection (over TCP with checksums + resilient reconnect) and demand bit-identical final state; ignores -design")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 1, "fault schedule seed for -chaos (same seed, same per-connection fault schedule)")
	flag.Parse()

	if err := o.check(); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net:", err)
		os.Exit(2)
	}
	run := runFlat
	if o.chaosSoak {
		run = runChaosSoak
	}
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net:", err)
		os.Exit(1)
	}
}

// check refuses the flag combinations no mode runs and fills in what the
// flags leave to defaults.
func (o *options) check() error {
	o.shards = max(o.shards, 1)
	if o.chaosSoak {
		return nil
	}
	var err error
	o.design, err = train.ParseDesign(o.designName, o.sparsity, false)
	return err
}

// timeouts are the workers' deadlines: -net-timeout on every frame read
// and flush.
func (o *options) timeouts() transport.Timeouts {
	return transport.Timeouts{Read: o.netTimeout, Write: o.netTimeout}
}

// serverTimeouts are every shard server's deadlines. A server's push read
// spans the whole BSP barrier (every worker's compute), so its read
// deadline is much wider than the per-frame worker deadline; its writes
// are held to -net-timeout.
func (o *options) serverTimeouts() transport.Timeouts {
	if o.netTimeout <= 0 {
		return transport.Timeouts{}
	}
	return transport.Timeouts{Read: 5 * time.Minute, Write: o.netTimeout}
}

// job is the train.Config every mode runs — 3lc-train's own
// (train.CLIConfig: the MLP, the tuned SGD schedule) over a synthetic set
// of nTrain + nTest examples, `seed` seeding the model, the data and the
// batch samplers. The mode adds the Tier hook that puts it on sockets.
func (o *options) job(design train.Design, nTrain, nTest int, seed uint64) train.Config {
	cfg := train.CLIConfig(train.CLIOptions{Design: design, Workers: o.workers, Steps: o.steps,
		Batch: o.batch, Seed: seed})
	cfg.Data.Train, cfg.Data.Test = nTrain, nTest
	cfg.Data.Seed += seed - 1
	return cfg
}

// listen opens n listeners on addr's port, port+1, … (kernel-assigned ports
// when the address's port is 0; loopback when it names no host).
func listen(addr string, n int) ([]net.Listener, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad -addr %q: %w", addr, err)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad -addr port %q: %w", portStr, err)
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		port := "0"
		if basePort != 0 {
			port = strconv.Itoa(basePort + i)
		}
		if lns[i], err = net.Listen("tcp", net.JoinHostPort(host, port)); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
	}
	return lns, nil
}

// servers is a serving set: where each server listens, the servers (for
// their byte counters) and the channel that receives each one's Serve
// result.
type servers struct {
	addrs []string
	srvs  []*transport.ShardServer
	errs  chan error
}

// newServers is a set that will serve n servers.
func newServers(n int) *servers { return &servers{errs: make(chan error, n)} }

func (t *servers) serve(ln net.Listener, srv *transport.ShardServer) {
	t.addrs = append(t.addrs, ln.Addr().String())
	t.srvs = append(t.srvs, srv)
	go func() { t.errs <- srv.Serve() }()
}

// serveShards serves model from one transport.ShardServer per shard of
// asn, each over its own sub-job under cfg (shard.SubServers) and its own
// copy of base, whose Shard, NumShards and AssignmentHash are filled in
// here. open returns shard s's listener, wrapped and announced as the mode
// wants.
func serveShards(model *nn.Model, asn shard.Assignment, cfg ps.Config, base transport.ShardServerConfig,
	open func(s int) net.Listener) (*servers, error) {
	subs, err := shard.SubServers(model, cfg, asn)
	if err != nil {
		return nil, err
	}
	t := newServers(len(subs))
	base.NumShards, base.AssignmentHash = len(subs), asn.Hash()
	for s, sub := range subs {
		scfg := base
		scfg.Shard = s
		ln := open(s)
		t.serve(ln, transport.NewShardServer(ln, sub, scfg))
	}
	return t, nil
}

// drain collects every server's Serve result and returns the first
// failure.
func (t *servers) drain() error {
	for range t.srvs {
		if err := <-t.errs; err != nil {
			return err
		}
	}
	return nil
}

// traffic totals the set's (push, pull) bytes.
func (t *servers) traffic() (push, pull int64) {
	for _, srv := range t.srvs {
		p, q := srv.TrafficBytes()
		push += p
		pull += q
	}
	return push, pull
}

// flatTopology is the flat modes' servers: a shard tier of -shards
// servers, one by default. tier starts them and dials the workers' seats;
// drain joins them after the run.
type flatTopology struct {
	o      *options
	lns    []net.Listener // one per shard
	global *nn.Model      // the run's global model, which the servers serve
	srvs   *servers
}

// flat returns the flat mode's job and the topology its Tier hook builds.
func (o *options) flat() (train.Config, *flatTopology, error) {
	cfg := o.job(o.design, 1000, 300, 1)
	lns, err := listen(o.addr, o.shards)
	if err != nil {
		return cfg, nil, err
	}
	f := &flatTopology{o: o, lns: lns}
	cfg.Tier = f.tier
	return cfg, f, nil
}

// tier is the flat modes' train.Config.Tier.
func (f *flatTopology) tier(global *nn.Model, psCfg ps.Config) (ps.Tier, error) {
	o := f.o
	f.global = global
	// One listener per shard; workers hold one multiplexed connection to each.
	asn := shard.ForModel(global, o.shards)
	base := transport.ShardServerConfig{Workers: o.workers, Steps: o.steps, Timeouts: o.serverTimeouts()}
	var err error
	f.srvs, err = serveShards(global, asn, psCfg, base, func(s int) net.Listener {
		ln := f.lns[s]
		fmt.Printf("parameter-server shard %d/%d listening on %s (%d tensors)\n",
			s, o.shards, ln.Addr(), len(asn.Tensors(s)))
		return ln
	})
	if err != nil {
		return nil, err
	}
	return transport.DialTier(o.workers, func(w int) (*transport.ShardClient, error) {
		return transport.DialShardedConfig(f.srvs.addrs, w, asn, transport.ShardClientConfig{Timeouts: o.timeouts()})
	})
}

// drain joins the servers once the run has closed its connections.
func (f *flatTopology) drain() error {
	if err := f.srvs.drain(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// runFlat is the default mode and its -shards form.
func runFlat(o *options) error {
	cfg, f, err := o.flat()
	if err != nil {
		return err
	}
	res, err := train.Run(cfg)
	if err != nil {
		return err
	}
	if err := f.drain(); err != nil {
		return err
	}
	push, pull := f.srvs.traffic()
	fmt.Printf("completed %d steps x %d workers over TCP in %v\n", o.steps, o.workers, time.Duration(res.WallSec*float64(time.Second)).Round(time.Millisecond))
	fmt.Printf("test accuracy:    %.2f%%\n", 100*res.FinalAccuracy)
	fmt.Printf("push bytes:       %d (received by server)\n", push)
	fmt.Printf("pull bytes:       %d (sent to workers)\n", pull)
	raw := res.RawPushBytes
	fmt.Printf("raw equivalent:   %d bytes pushed, %d pulled; push compression %.1fx\n", raw, res.RawBytes-raw, float64(raw)/float64(push))
	return nil
}

// chaosCodecs is the soak's codec roster: one configuration per
// registered wire scheme, so every codec's aggregation path is proven
// exact under injected faults.
var chaosCodecs = []train.Design{
	{Name: "float32", Scheme: compress.SchemeNone},
	{Name: "int8", Scheme: compress.SchemeInt8},
	{Name: "3lc", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.5, ZeroRun: true}},
	{Name: "stoch3", Scheme: compress.SchemeStoch3QE, Opts: compress.Options{Seed: 9}},
	{Name: "mqe1bit", Scheme: compress.SchemeMQE1Bit},
	{Name: "topk", Scheme: compress.SchemeTopK, Opts: compress.Options{Fraction: 0.3, Seed: 9}},
	{Name: "localsteps", Scheme: compress.SchemeLocalSteps, Opts: compress.Options{Interval: 2}},
}

// runChaosSoak is the -chaos mode (see the package comment): every codec's
// job runs once on an in-process server and once through chaosTCPRun, and
// the two final model states must match bit for bit. Any divergence — or a
// soak in which no fault actually fired — fails.
func runChaosSoak(o *options) error {
	fmt.Printf("chaos soak: %d codecs x %d steps x %d workers over a %d-shard tier (seed %d)\n",
		len(chaosCodecs), o.steps, o.workers, o.shards, o.chaosSeed)

	failed := false
	var totalFaults int64
	for ci, design := range chaosCodecs {
		cfg := o.job(design, 200, 50, 1)
		ref, err := finalWeights(cfg, func(global *nn.Model, psCfg ps.Config) (ps.Tier, error) {
			return ps.NewJob(global, psCfg), nil
		})
		if err != nil {
			fmt.Printf("  %-10s FAIL (reference run): %v\n", design.Name, err)
			failed = true
			continue
		}
		// Each codec draws a decorrelated fault schedule off the soak seed
		// so one seed exercises eight distinct schedules.
		inj := chaos.New(chaos.Config{
			Seed:      o.chaosSeed + uint64(ci)*0x9e3779b97f4a7c15,
			BitFlip:   0.02,
			Truncate:  0.01,
			Reset:     0.01,
			StallProb: 0.02,
			Stall:     50 * time.Millisecond,
			DelayProb: 0.02,
			Delay:     20 * time.Millisecond,
			// Keep the fault load within the recovery budget: once spent,
			// the remaining traffic passes clean and the run must converge.
			MaxFaults: 64,
		})
		got, err := chaosTCPRun(inj, o, cfg)
		st := inj.Stats()
		totalFaults += st.Total()
		switch {
		case err != nil:
			fmt.Printf("  %-10s FAIL: %v (%v)\n", design.Name, err, st)
			failed = true
		case !slices.Equal(ref, got):
			fmt.Printf("  %-10s FAIL: final weights diverge from clean reference (%v)\n", design.Name, st)
			failed = true
		default:
			fmt.Printf("  %-10s ok: bit-identical under %d faults (%v)\n", design.Name, st.Total(), st)
		}
	}
	fmt.Printf("chaos soak: %d faults injected across %d codecs\n", totalFaults, len(chaosCodecs))
	if failed {
		return errors.New("chaos soak FAILED")
	}
	if totalFaults == 0 {
		return errors.New("chaos soak injected zero faults — the run proves nothing; raise -steps or change -chaos-seed")
	}
	fmt.Println("chaos soak PASSED: every codec bit-identical under injected faults")
	return nil
}

// finalWeights runs cfg over the tier `build` makes and returns the final
// weights of the run's global model.
func finalWeights(cfg train.Config, build func(*nn.Model, ps.Config) (ps.Tier, error)) ([]float32, error) {
	var global *nn.Model
	cfg.Tier = func(g *nn.Model, psCfg ps.Config) (ps.Tier, error) {
		global = g
		return build(g, psCfg)
	}
	if _, err := train.Run(cfg); err != nil {
		return nil, err
	}
	var flat []float32
	for _, p := range global.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return flat, nil
}

// chaosTCPRun runs the soak job over real TCP with inj wrapping every
// listener and dial: resilient shard servers, resilient clients, and the
// seeded retry schedule. Returns the final global
// weights.
func chaosTCPRun(inj *chaos.Injector, o *options, cfg train.Config) ([]float32, error) {
	// The read deadline is the failure detector for stalled connections;
	// it also bounds each resilient reacquire wait on the server, so it
	// must exceed the client's worst-case single backoff (250ms cap).
	timeouts := transport.Timeouts{Read: 2 * time.Second, Write: 2 * time.Second}
	retryPol := transport.RetryPolicy{
		MaxAttempts: 8,
		Base:        25 * time.Millisecond,
		Cap:         250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        o.chaosSeed,
	}
	lns, err := listen("127.0.0.1:0", o.shards)
	if err != nil {
		return nil, err
	}
	var tier *servers
	weights, err := finalWeights(cfg, func(global *nn.Model, psCfg ps.Config) (ps.Tier, error) {
		asn := shard.ForModel(global, o.shards)
		var err error
		tier, err = serveShards(global, asn, psCfg,
			transport.ShardServerConfig{Workers: o.workers, Steps: o.steps, Timeouts: timeouts, Resilient: true},
			func(s int) net.Listener { return inj.WrapListener(lns[s]) })
		if err != nil {
			return nil, err
		}
		// The initial handshake crosses injected connections too: a
		// resilient client retries its dial under the same schedule.
		ccfg := transport.ShardClientConfig{Timeouts: timeouts, Resilient: true, Retry: retryPol, Dialer: inj.Dial}
		return transport.DialTier(o.workers, func(w int) (*transport.ShardClient, error) {
			return transport.DialShardedConfig(tier.addrs, w, asn, ccfg)
		})
	})
	if err != nil {
		return nil, err
	}
	if err := tier.drain(); err != nil {
		return nil, fmt.Errorf("shard serve: %w", err)
	}
	return weights, nil
}
