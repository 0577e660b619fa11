// Command 3lc-net runs distributed training over REAL TCP connections on
// this machine: a parameter server listening on a loopback port and N
// worker processes' worth of goroutine clients pushing compressed
// gradients through actual sockets. It demonstrates that the wire formats
// and the BSP protocol work outside the simulator and reports the real
// bytes that crossed the network.
//
//	3lc-net -design 3lc -sparsity 1.75 -workers 4 -steps 50
//	3lc-net -design 3lc -workers 4 -steps 50 -shards 2   # sharded PS tier
//	3lc-net -shards 2 -replicas -kill-shard 0 -kill-step 25  # failover demo
//	3lc-net -tenants 8 -shards 2 -workers 2 -steps 20    # multi-tenant tier
//	3lc-net -regions 2 -workers 4 -steps 50              # hierarchical WAN tier
//	3lc-net -chaos -chaos-seed 7 -shards 2 -workers 2 -steps 6  # chaos soak
//
// With -chaos the run becomes the chaos soak: every registered codec is
// trained twice — once in-process (the clean reference) and once over
// real TCP with a deterministic fault injector (internal/chaos) wrapping
// every listener and dial while the connections run the full defense
// stack (CRC-32C frame checksums, resilient reconnect-and-replay, seeded
// retry backoff). The soak demands the faulted run's final model state
// be BIT-IDENTICAL to the clean reference for every codec, prints the
// injected-fault census, and exits non-zero on any divergence (or if no
// faults fired, which would prove nothing). -chaos ignores -design and
// is incompatible with the other topology modes.
//
// With -regions R > 1 the run becomes a two-level hierarchy: workers are
// split into R regions, each fronted by an aggregator (a region.Tier in
// recompress mode behind its own TCP listener). The aggregator fuses its
// local workers' pushes into one re-encoded residual stream per step and
// forwards it over the inter-region leg — a connection with the
// transport entropy second stage enabled (-wan-entropy) — to the global
// tier, which sees R region pushes instead of W worker pushes. The run
// reports local-leg and inter-region traffic separately; the headline is
// how many fewer bytes cross the slow link than the flat topology's
// every-worker-wire stream.
//
// With -tenants N > 1 the tier becomes a multi-tenant service: N
// independent jobs — each with its own model, dataset, and -workers
// worker connections — are admitted to ONE shared set of shards and run
// concurrently. Every shard has a single multiplexed listener
// (transport.MuxShardServer); the shard scheduler serves the tenants'
// aggregation work deficit-round-robin, and the run reports per-tenant
// accuracy, traffic, and queue-wait accounting.
//
// With -shards N > 1 the model's tensors are partitioned across N
// parameter-server shards (each with its own listener and codec
// contexts) and every worker holds one multiplexed connection per shard,
// pushing and pulling against all of them concurrently.
//
// With -replicas every shard gets a standby, a second transport.ShardServer
// over its own model clone that every worker sends its pushes to ahead of
// the primary's copy; -kill-shard S -kill-step K then crashes shard S's
// primary at step K. Workers detect the death (read deadline or EOF),
// claim the standby by replaying the in-flight push on the connection they
// already hold (deduplicated on the per-step push identity), and finish
// the run — with final model state byte-identical to an unkilled run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"threelc/internal/chaos"
	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/region"
	"threelc/internal/shard"
	"threelc/internal/tenant"
	"threelc/internal/tensor"
	"threelc/internal/train"
	"threelc/internal/transport"
)

func main() {
	var (
		designName = flag.String("design", "3lc", "design: float32 | int8 | 3lc")
		sparsity   = flag.Float64("sparsity", 1.0, "3LC sparsity multiplier")
		workers    = flag.Int("workers", 4, "number of workers")
		steps      = flag.Int("steps", 50, "training steps")
		batch      = flag.Int("batch", 16, "per-worker batch size")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		shards     = flag.Int("shards", 1, "parameter-server shard count; shard s listens on -addr's port + s (each shard gets its own listener; workers multiplex)")
		stream     = flag.Bool("stream", false, "per-tensor streamed pipeline: hand each tensor to its shard's connection as its compressor finishes (the server decode-aggregates it on arrival) and decode-apply each pulled tensor as it is read; frames are written when the compressor has nothing more ready, every 64 KiB and at the end of the push, not one by one; implies the shard-tier transport even at -shards 1")
		tenants    = flag.Int("tenants", 1, "concurrent tenant jobs multiplexed over one shared shard tier; each tenant trains its own model with its own -workers workers")
		replicas   = flag.Bool("replicas", false, "run one standby per shard (workers send it a copy of every push and fail over to it on primary death); implies the shard tier")
		killShard  = flag.Int("kill-shard", -1, "crash this shard's primary mid-run (requires -replicas)")
		killStep   = flag.Int("kill-step", -1, "step at which -kill-shard fires (default steps/2)")
		netTimeout = flag.Duration("net-timeout", 0, "per-frame read/write deadline on worker connections (failure detector for dead shards); 0 disables, except with -replicas where it defaults to 10s")
		regions    = flag.Int("regions", 1, "hierarchical two-level aggregation: split the workers into this many regions, each fronted by an aggregator that fuses local pushes and forwards ONE re-encoded stream per step across the inter-region leg; requires workers to divide evenly into regions")
		wanEntropy = flag.String("wan-entropy", "huffman", "entropy second stage on the inter-region leg (with -regions): huffman | lz | off")
		chaosSoak  = flag.Bool("chaos", false, "chaos soak: train every codec clean (in-process) and under deterministic fault injection (over TCP with checksums + resilient reconnect) and demand bit-identical final state; ignores -design")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault schedule seed for -chaos (same seed, same per-connection fault schedule)")
	)
	flag.Parse()

	if *chaosSoak {
		if *stream || *replicas || *killShard >= 0 || *tenants > 1 || *regions > 1 {
			fmt.Fprintln(os.Stderr, "3lc-net: -chaos is incompatible with -stream, -replicas, -kill-shard, -tenants, and -regions")
			os.Exit(2)
		}
		if *shards < 1 {
			*shards = 1
		}
		runChaosSoak(*chaosSeed, *shards, *workers, *steps, *batch)
		return
	}

	var scheme compress.Scheme
	var opts compress.Options
	switch *designName {
	case "float32":
		scheme = compress.SchemeNone
	case "int8":
		scheme = compress.SchemeInt8
	case "3lc":
		scheme = compress.SchemeThreeLC
		opts = compress.Options{Sparsity: *sparsity, ZeroRun: true}
	default:
		fmt.Fprintf(os.Stderr, "3lc-net: unknown design %q\n", *designName)
		os.Exit(2)
	}

	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 1000, 300
	trainSet, testSet := data.Synthetic(dcfg)
	in := dcfg.C * dcfg.H * dcfg.W
	build := func() *nn.Model { return nn.NewMLP(in, []int{48}, dcfg.Classes, 1) }

	psCfg := ps.Config{
		Scheme:           scheme,
		Opts:             opts,
		Workers:          *workers,
		MinCompressElems: 256,
		Optimizer:        opt.TunedSGDConfig(*workers, *steps),
	}

	if *shards < 1 {
		*shards = 1
	}
	if *regions > 1 {
		if *stream || *replicas || *killShard >= 0 || *tenants > 1 {
			fmt.Fprintln(os.Stderr, "3lc-net: -regions is incompatible with -stream, -replicas, -kill-shard, and -tenants")
			os.Exit(2)
		}
		if *workers%*regions != 0 {
			fmt.Fprintf(os.Stderr, "3lc-net: -workers %d must divide evenly into -regions %d\n", *workers, *regions)
			os.Exit(2)
		}
		algo, err := compress.ParseEntropyAlgo(*wanEntropy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net:", err)
			os.Exit(2)
		}
		runHierarchical(*regions, *shards, *workers, *steps, *batch, listenAt(*addr),
			scheme, opts, algo, psCfg, build, trainSet, testSet, *netTimeout)
		return
	}
	if *tenants > 1 {
		if *stream || *replicas || *killShard >= 0 {
			fmt.Fprintln(os.Stderr, "3lc-net: -tenants is incompatible with -stream, -replicas, and -kill-shard")
			os.Exit(2)
		}
		runMultiTenant(*tenants, *shards, *workers, *steps, *batch, listenAt(*addr), scheme, opts, *netTimeout)
		return
	}
	if *replicas && *stream {
		fmt.Fprintln(os.Stderr, "3lc-net: -stream pushes are not replicated; drop -stream or -replicas")
		os.Exit(2)
	}
	if *killShard >= 0 && !*replicas {
		fmt.Fprintln(os.Stderr, "3lc-net: -kill-shard needs -replicas (no standby to fail over to)")
		os.Exit(2)
	}
	if *killShard >= *shards {
		fmt.Fprintf(os.Stderr, "3lc-net: -kill-shard %d out of range (%d shards)\n", *killShard, *shards)
		os.Exit(2)
	}
	if *killStep < 0 {
		*killStep = *steps / 2
	}
	if *killShard >= 0 && (*killStep < 1 || *killStep >= *steps) {
		fmt.Fprintf(os.Stderr, "3lc-net: -kill-step %d must be in [1, steps) to fire mid-run\n", *killStep)
		os.Exit(2)
	}
	if *replicas && *netTimeout == 0 {
		// Failover needs a failure detector: without a read deadline only
		// an abrupt connection error (EOF/RST) would trigger it.
		*netTimeout = 10 * time.Second
	}
	useShardTier := *shards > 1 || *stream || *replicas
	global := build()
	timeouts := transport.Timeouts{Read: *netTimeout, Write: *netTimeout}
	listen := listenAt(*addr)

	// trafficFn reports (push, pull) bytes summed over the server tier.
	var trafficFn func() (int64, int64)
	var primaries, standbys shardTier
	var replicaModel *nn.Model
	asn := shard.ForModel(global, *shards)
	if useShardTier {
		// One listener per shard; workers hold one multiplexed connection
		// to each. Shard s binds -addr's port + s.
		base := transport.ShardServerConfig{Workers: *workers, Steps: *steps}
		shardCfg := splitParallelism(psCfg, *shards)
		var err error
		if *replicas {
			// Standby tier: one replica per shard over its OWN model clone
			// (replicated state must not alias the primary's tensors).
			// Replica s binds -addr's port + shards + s.
			replicaModel = build()
			replicaModel.CopyParamsFrom(global)
			base.Timeouts = timeouts
			standbys, err = startShardTier(replicaModel, asn, shardCfg, base, func(s int, _ *transport.ShardServerConfig) net.Listener {
				ln := listen(*shards + s)
				fmt.Printf("replica shard %d/%d standing by on %s\n", s, *shards, ln.Addr())
				return ln
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "3lc-net:", err)
				os.Exit(1)
			}
			base.Timeouts = transport.Timeouts{Read: 5 * time.Minute, Write: *netTimeout}
		}
		primaries, err = startShardTier(global, asn, shardCfg, base, func(s int, scfg *transport.ShardServerConfig) net.Listener {
			ln := listen(s)
			fmt.Printf("parameter-server shard %d/%d listening on %s (%d tensors)\n",
				s, *shards, ln.Addr(), len(asn.Tensors(s)))
			if s == *killShard {
				scfg.KillAtStep = *killStep
				fmt.Printf("shard %d primary will be killed at step %d\n", s, *killStep)
			}
			return ln
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net:", err)
			os.Exit(1)
		}
		trafficFn = func() (int64, int64) { // primaries and standbys alike
			return sumTraffic(slices.Concat(primaries.srvs, standbys.srvs))
		}
	} else {
		// The plain front door: a tier of one, dialed by v1 clients.
		ln := listen(0)
		fmt.Printf("parameter server listening on %s\n", ln.Addr())
		primaries = shardTier{addrs: []string{ln.Addr().String()}, errs: make(chan error, 1)}
		trafficFn = startFrontDoor(ln, ps.NewJob(global, psCfg), *workers, *steps, *netTimeout, primaries.errs).TrafficBytes
	}

	start := time.Now()
	chief := eachWorker(*workers, build, global, psCfg, func(w int, worker *ps.Worker) {
		var exchange func(step int) error
		if useShardTier {
			// Each worker derives the placement from its own replica;
			// the handshake hash certifies it matches the server tier.
			sc, err := transport.DialShardedConfig(primaries.addrs, w, shard.ForModel(worker.Model, *shards),
				transport.ShardClientConfig{Timeouts: timeouts, Replicas: standbys.addrs})
			if err != nil {
				fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
				os.Exit(1)
			}
			defer sc.Close()
			exchange = wholeSet(worker, sc.PushPull)
			if *stream {
				exchange = streamed(worker, sc)
			}
		} else {
			c, err := transport.DialTimeout(primaries.addrs[0], w, timeouts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
				os.Exit(1)
			}
			defer c.Close()
			exchange = wholeSet(worker, c.PushPull)
		}
		if err := workerSteps(worker, trainSet, batchRNG(0, w), *steps, *batch, exchange); err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
			os.Exit(1)
		}
	})
	var killed error
	if *killShard >= 0 {
		killed = transport.ErrShardKilled // the injected crash — the standby takes over
	}
	if err := drain(primaries.errs, len(primaries.addrs), killed); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net server:", err)
		os.Exit(1)
	}
	if err := drain(standbys.errs, len(standbys.addrs), nil); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net replica:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if *killShard >= 0 {
		// The killed shard's authoritative state lives on its replica:
		// graft it into the global model before evaluating.
		gp, rp := global.Params(), replicaModel.Params()
		for _, gi := range asn.Tensors(*killShard) {
			gp[gi].W.CopyFrom(rp[gi].W)
		}
		fmt.Printf("shard %d primary killed at step %d; replica served the remaining steps\n",
			*killShard, *killStep)
	}

	push, pull := trafficFn()
	fmt.Printf("completed %d steps x %d workers over TCP in %v\n", *steps, *workers, elapsed.Round(time.Millisecond))
	fmt.Printf("test accuracy:    %.2f%%\n", testAccuracy(global, chief, testSet))
	fmt.Printf("push bytes:       %d (received by server)\n", push)
	fmt.Printf("pull bytes:       %d (sent to workers)\n", pull)
	raw := int64(global.NumParams()) * 4 * int64(*steps) * int64(*workers)
	fmt.Printf("raw equivalent:   %d bytes each way; push compression %.1fx\n", raw, float64(raw)/float64(push))
}

// listenAt parses a listen address once and returns listen(offset), which
// binds the address's port + offset (a kernel-assigned port when the
// address's port is 0; loopback when it names no host). A bad address or a
// port that cannot be bound is fatal.
func listenAt(addr string) func(offset int) net.Listener {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "3lc-net: bad -addr %q: %v\n", addr, err)
		os.Exit(1)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "3lc-net: bad -addr port %q: %v\n", portStr, err)
		os.Exit(1)
	}
	return func(offset int) net.Listener {
		port := "0"
		if basePort != 0 {
			port = strconv.Itoa(basePort + offset)
		}
		ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net:", err)
			os.Exit(1)
		}
		return ln
	}
}

// splitParallelism divides the codec-pool budget across the shards that
// serve concurrently, so the tier as a whole stays within GOMAXPROCS (the
// same division train.Run's sharded branch applies).
func splitParallelism(cfg ps.Config, shards int) ps.Config {
	cfg.Parallelism = max(runtime.GOMAXPROCS(0)/shards, 1)
	return cfg
}

// shardTier is a serving set of shard servers: where each listens, the
// servers (for their byte counters) and the channel that receives each
// one's Serve result.
type shardTier struct {
	addrs []string
	srvs  []*transport.ShardServer
	errs  chan error
}

// startShardTier serves model from one transport.ShardServer per shard of
// asn, each over its own sub-job under cfg. open returns shard s's
// listener — wrapped and announced as the mode wants — and may adjust that
// shard's copy of base, whose Shard, NumShards and AssignmentHash are
// filled in here.
func startShardTier(model *nn.Model, asn shard.Assignment, cfg ps.Config, base transport.ShardServerConfig,
	open func(s int, scfg *transport.ShardServerConfig) net.Listener) (shardTier, error) {
	subs, err := shard.SubServers(model, cfg, asn)
	if err != nil {
		return shardTier{}, err
	}
	t := shardTier{errs: make(chan error, len(subs))}
	base.NumShards, base.AssignmentHash = len(subs), asn.Hash()
	for s, sub := range subs {
		scfg := base
		scfg.Shard = s
		ln := open(s, &scfg)
		srv := transport.NewShardServer(ln, sub, scfg)
		t.addrs = append(t.addrs, ln.Addr().String())
		t.srvs = append(t.srvs, srv)
		go func() { t.errs <- srv.Serve() }()
	}
	return t, nil
}

// startFrontDoor serves job to `workers` plain (v1) clients on ln, sending
// the Serve result to errs. The server's push read spans the whole BSP
// barrier (every worker's compute), so its read deadline is much wider
// than the per-frame worker deadline.
func startFrontDoor(ln net.Listener, job transport.StepServer, workers, steps int, netTimeout time.Duration, errs chan<- error) *transport.Server {
	srv := transport.NewServer(ln, job, workers, steps)
	if netTimeout > 0 {
		srv.SetTimeouts(transport.Timeouts{Read: 5 * time.Minute, Write: netTimeout})
	}
	go func() { errs <- srv.Serve() }()
	return srv
}

// drain collects n Serve results from errs and returns the first failure
// that is not `ignore`.
func drain(errs <-chan error, n int, ignore error) error {
	for ; n > 0; n-- {
		if err := <-errs; err != nil && !errors.Is(err, ignore) {
			return err
		}
	}
	return nil
}

// sumTraffic totals (push, pull) bytes over a set of servers.
func sumTraffic[S interface{ TrafficBytes() (int64, int64) }](srvs []S) (push, pull int64) {
	for _, srv := range srvs {
		p, q := srv.TrafficBytes()
		push += p
		pull += q
	}
	return push, pull
}

// newWorker is worker w over its own clone of global.
func newWorker(w int, build func() *nn.Model, global *nn.Model, cfg ps.Config) *ps.Worker {
	m := build()
	m.CopyParamsFrom(global)
	return ps.NewWorker(w, m, cfg)
}

// eachWorker runs body for n workers over clones of global, each in its
// own goroutine, and returns worker 0 — the designated batch-norm owner
// (§5.2) — once all have finished.
func eachWorker(n int, build func() *nn.Model, global *nn.Model, cfg ps.Config, body func(w int, worker *ps.Worker)) *ps.Worker {
	ws := make([]*ps.Worker, n)
	var wg sync.WaitGroup
	for w := range ws {
		ws[w] = newWorker(w, build, global, cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, ws[w])
		}()
	}
	wg.Wait()
	return ws[0]
}

// batchRNG is the batch sampler of tenant t's worker w. It derives from
// the ids alone, so the chaos soak's clean reference and its faulted TCP
// run train on identical data.
func batchRNG(t, w int) *tensor.RNG {
	return tensor.NewRNG(uint64(t)*7919 + uint64(w)*977 + 3)
}

// trainBatch draws one batch and runs the forward and backward pass.
func trainBatch(worker *ps.Worker, trainSet *data.Dataset, rng *tensor.RNG, batch int) {
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(trainSet.Len())
	}
	x, labels := trainSet.FlatBatch(idx, nil, nil)
	worker.Model.TrainStep(x, labels)
}

// workerSteps drives one worker's BSP loop: train on a batch, then
// exchange — compress, push, pull and apply in the form the connection
// takes (wholeSet or streamed).
func workerSteps(worker *ps.Worker, trainSet *data.Dataset, rng *tensor.RNG, steps, batch int, exchange func(step int) error) error {
	for s := 0; s < steps; s++ {
		trainBatch(worker, trainSet, rng, batch)
		if err := exchange(s); err != nil {
			return err
		}
	}
	return nil
}

// wholeSet is the exchange that pushes the step's whole wire set in one
// round trip and applies the pulled set when it has all arrived.
func wholeSet(worker *ps.Worker, pushPull func(step int, wires [][]byte) ([][]byte, error)) func(step int) error {
	return func(step int) error {
		wires, _ := worker.CompressGrads()
		pull, err := pushPull(step, wires)
		if err != nil {
			return err
		}
		_, err = worker.ApplyPull(pull)
		return err
	}
}

// streamed is the overlapped exchange: tensors are queued for the wire as
// their compressors finish and written when none is pending; pulls
// decode-apply per frame.
func streamed(worker *ps.Worker, sc *transport.ShardClient) func(step int) error {
	params := len(worker.Model.Params())
	return func(step int) error {
		ch := make(chan transport.IndexedWire, params)
		go func() {
			worker.CompressGradsStream(func(i int, wire []byte) {
				ch <- transport.IndexedWire{I: i, Wire: wire}
			})
			close(ch)
		}()
		return sc.PushPullStream(step, ch, worker.ApplyPullTensor)
	}
}

// testAccuracy is global's top-1 test accuracy in percent. Batch-norm
// running statistics live on the chief worker; they are synced first.
func testAccuracy(global *nn.Model, chief *ps.Worker, testSet *data.Dataset) float64 {
	nn.CopyBatchNormStats(global, chief.Model)
	return 100 * train.Evaluate(global, testSet, testSet.Len(), true)
}

// wanClient adapts one inter-region connection (a transport.ShardClient
// dialed with the region's index as its worker id) into the region.Server
// a region tier forwards to: the tier's single per-step region push
// becomes one PushPull round trip across the slow link.
type wanClient struct {
	sc    *transport.ShardClient
	step  int
	wires [][]byte
}

func (c *wanClient) BeginStep() {}

func (c *wanClient) BeginPush(int) ps.PushSession { return wanSession{c} }

func (c *wanClient) FinishStep() ([][]byte, time.Duration, error) {
	pull, err := c.sc.PushPull(c.step, c.wires)
	c.step++
	if err != nil {
		return nil, 0, err
	}
	return pull, 0, nil
}

func (c *wanClient) AppendState(dst []byte) []byte { return dst }

func (c *wanClient) RestoreState(src []byte) error {
	if len(src) != 0 {
		return errors.New("3lc-net: inter-region client holds no state")
	}
	return nil
}

// wanSession stages the region's wire set until FinishStep ships it. The
// staged slices alias tier-owned buffers, which stay valid through the
// PushPull call.
type wanSession struct{ c *wanClient }

func (s wanSession) Set(wires [][]byte) error {
	s.c.wires = append(s.c.wires[:0], wires...)
	return nil
}

func (s wanSession) Tensor(i int, wire []byte) error {
	for i >= len(s.c.wires) {
		s.c.wires = append(s.c.wires, nil)
	}
	s.c.wires[i] = wire
	return nil
}

func (s wanSession) End() error { return nil }

// runHierarchical is the -regions R mode: hierarchical two-level
// aggregation over real TCP. Local workers connect to their region's
// front door (a transport.Server driving a region.Tier in recompress
// mode); each aggregator fuses its workers' pushes into one re-encoded
// residual stream per step and forwards it, on a connection with the
// transport entropy stage enabled, to the global shard tier — which sees
// R region pushes per step instead of W worker pushes.
func runHierarchical(regions, shards, workers, steps, batch int, listen func(offset int) net.Listener,
	scheme compress.Scheme, opts compress.Options, wanAlgo compress.EntropyAlgo,
	psCfg ps.Config, build func() *nn.Model, trainSet, testSet *data.Dataset,
	netTimeout time.Duration) {
	wpr := workers / regions
	timeouts := transport.Timeouts{Read: netTimeout, Write: netTimeout}

	// Global tier: the shard-tier transport (it speaks the v2 header the
	// entropy stage rides on), sized for one push per region. Shard s
	// binds -addr's port + s.
	global := build()
	asn := shard.ForModel(global, shards)
	globalCfg := splitParallelism(psCfg, shards)
	globalCfg.Workers = regions
	tier, err := startShardTier(global, asn, globalCfg, transport.ShardServerConfig{Workers: regions, Steps: steps},
		func(s int, _ *transport.ShardServerConfig) net.Listener {
			ln := listen(s)
			fmt.Printf("global shard %d/%d listening on %s (%d tensors)\n",
				s, shards, ln.Addr(), len(asn.Tensors(s)))
			return ln
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net:", err)
		os.Exit(1)
	}

	// Region aggregators: each dials the global tier as "worker r" with
	// the entropy stage on its connection, wraps that in a recompress
	// region tier (scale 1/wpr: the global tier's division by R then
	// lands on the flat topology's 1/W mean), and serves its local
	// workers through the plain front door. Region r's front door binds
	// -addr's port + shards + r.
	regionAddrs := make([]string, regions)
	fronts := make([]*transport.Server, regions)
	clients := make([]*transport.ShardClient, regions)
	regionErr := make(chan error, regions)
	for r := 0; r < regions; r++ {
		sc, err := transport.DialShardedConfig(tier.addrs, r, asn, transport.ShardClientConfig{
			Timeouts: timeouts,
			Entropy:  wanAlgo,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net region:", err)
			os.Exit(1)
		}
		clients[r] = sc
		agg, err := region.NewTier(&wanClient{sc: sc}, global.Params(), region.Config{
			Regions:          1,
			Workers:          wpr,
			Recompress:       true,
			Scheme:           scheme,
			Opts:             opts,
			MinCompressElems: psCfg.MinCompressElems,
			Parallelism:      1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net region:", err)
			os.Exit(1)
		}
		ln := listen(shards + r)
		regionAddrs[r] = ln.Addr().String()
		fmt.Printf("region %d/%d aggregator listening on %s (%d local workers, wan entropy %s)\n",
			r, regions, ln.Addr(), wpr, wanAlgo)
		fronts[r] = startFrontDoor(ln, agg, wpr, steps, netTimeout, regionErr)
	}

	start := time.Now()
	chief := eachWorker(workers, build, global, psCfg, func(w int, worker *ps.Worker) {
		// Workers speak only to their region's aggregator, identified
		// by their LOCAL id within the region.
		client, err := transport.DialTimeout(regionAddrs[w/wpr], w%wpr, timeouts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
			os.Exit(1)
		}
		defer client.Close()
		if err := workerSteps(worker, trainSet, batchRNG(0, w), steps, batch, wholeSet(worker, client.PushPull)); err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
			os.Exit(1)
		}
	})
	if err := drain(regionErr, regions, nil); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net region:", err)
		os.Exit(1)
	}
	if err := drain(tier.errs, shards, nil); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net server:", err)
		os.Exit(1)
	}
	for _, sc := range clients {
		sc.Close()
	}
	elapsed := time.Since(start)

	localPush, localPull := sumTraffic(fronts)
	wanPush, wanPull := sumTraffic(tier.srvs)
	fmt.Printf("completed %d steps x %d workers in %d regions over TCP in %v\n",
		steps, workers, regions, elapsed.Round(time.Millisecond))
	fmt.Printf("test accuracy:      %.2f%%\n", testAccuracy(global, chief, testSet))
	fmt.Printf("local-leg bytes:    push %d, pull %d (workers <-> region aggregators)\n", localPush, localPull)
	fmt.Printf("inter-region bytes: push %d, pull %d (aggregators <-> global tier, entropy %s)\n", wanPush, wanPull, wanAlgo)
	// In a flat topology every worker wire crosses the slow link — the
	// local-leg push volume IS that counterfactual, measured.
	fmt.Printf("slow-link push reduction vs flat: %.1fx (%d -> %d bytes)\n",
		float64(localPush)/float64(wanPush), localPush, wanPush)
}

// runMultiTenant is the -tenants N mode: N independent training jobs
// multiplexed over ONE shared shard tier behind real TCP endpoints. Each
// tenant gets its own model (fresh seed), its own synthetic dataset, and
// its own worker connections tagged with the admitted (tenant, epoch)
// identity; each shard runs a single multiplexed listener whose DRR
// scheduler fair-shares the aggregation loop across the jobs.
func runMultiTenant(tenants, shards, workers, steps, batch int, listen func(offset int) net.Listener,
	scheme compress.Scheme, opts compress.Options, netTimeout time.Duration) {
	timeouts := transport.Timeouts{Read: netTimeout, Write: netTimeout}

	svc := shard.NewService(shard.Config{Shards: shards}, tenant.NewRegistry(tenants))
	defer svc.Close()

	// Per-tenant jobs: model seed, dataset seed, and worker RNG streams all
	// derive from the tenant id, so no two jobs do the same arithmetic.
	type job struct {
		id       tenant.ID
		epoch    tenant.Epoch
		global   *nn.Model
		psCfg    ps.Config
		build    func() *nn.Model
		trainSet *data.Dataset
		testSet  *data.Dataset
	}
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 400, 100
	in := dcfg.C * dcfg.H * dcfg.W
	jobs := make([]*job, tenants)
	for t := 0; t < tenants; t++ {
		seed := uint64(t + 1)
		j := &job{
			id:    tenant.ID(t + 1),
			build: func() *nn.Model { return nn.NewMLP(in, []int{48}, dcfg.Classes, seed) },
			psCfg: ps.Config{
				Scheme:           scheme,
				Opts:             opts,
				Workers:          workers,
				MinCompressElems: 256,
				Parallelism:      1, // tenants already saturate the cores
				Optimizer:        opt.TunedSGDConfig(workers, steps),
			},
		}
		jcfg := dcfg
		jcfg.Seed = dcfg.Seed + uint64(t)
		j.trainSet, j.testSet = data.Synthetic(jcfg)
		j.global = j.build()
		h, err := svc.Admit(j.id, j.global, j.psCfg, tenant.Limits{MaxSteps: uint64(steps)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net admit:", err)
			os.Exit(1)
		}
		j.epoch = h.Tenant().Epoch
		jobs[t] = j
	}

	// One multiplexed listener per shard, shared by every tenant's workers.
	// Shard s binds -addr's port + s.
	addrs := make([]string, shards)
	serveErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln := listen(s)
		addrs[s] = ln.Addr().String()
		fmt.Printf("multi-tenant shard %d/%d listening on %s (%d tenants)\n", s, shards, ln.Addr(), tenants)
		mux := transport.NewMuxShardServer(ln, svc, transport.MuxShardServerConfig{
			Shard:    s,
			Tenants:  tenants,
			Timeouts: timeouts,
		})
		go func() { serveErr <- mux.Serve() }()
	}

	start := time.Now()
	var wg sync.WaitGroup
	chiefs := make([]*ps.Worker, tenants)
	for t, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chiefs[t] = eachWorker(workers, j.build, j.global, j.psCfg, func(w int, worker *ps.Worker) {
				cl, err := transport.DialShardedConfig(addrs, w, shard.ForModel(worker.Model, shards), transport.ShardClientConfig{
					Timeouts: timeouts,
					Tenant:   uint32(j.id),
					Epoch:    uint32(j.epoch),
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "3lc-net worker:", err)
					os.Exit(1)
				}
				defer cl.Close()
				if err := workerSteps(worker, j.trainSet, batchRNG(t, w), steps, batch, wholeSet(worker, cl.PushPull)); err != nil {
					fmt.Fprintf(os.Stderr, "3lc-net tenant %d worker %d: %v\n", j.id, w, err)
					os.Exit(1)
				}
			})
		}()
	}
	wg.Wait()
	if err := drain(serveErr, shards, nil); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-net server:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("completed %d tenants x %d steps x %d workers over one %d-shard tier in %v\n",
		tenants, steps, workers, shards, elapsed.Round(time.Millisecond))
	var totPush, totPull uint64
	for t, j := range jobs {
		ten, err := svc.Retire(j.id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "3lc-net retire:", err)
			os.Exit(1)
		}
		snap := ten.Stats.Snapshot()
		totPush += snap.PushBytes
		totPull += snap.PullBytes
		fmt.Printf("tenant %-3d  acc %5.1f%%  steps %d  push %d B  pull %d B  queue-wait %v\n",
			j.id, testAccuracy(j.global, chiefs[t], j.testSet), snap.Steps,
			snap.PushBytes, snap.PullBytes, time.Duration(snap.QueueWaitNs).Round(time.Microsecond))
	}
	fmt.Printf("tier totals:      push %d B, pull %d B across %d tenants\n", totPush, totPull, tenants)
}

// chaosCodecs is the soak's codec roster: one configuration per
// registered wire scheme, so every codec's aggregation path is proven
// exact under injected faults.
var chaosCodecs = []struct {
	name   string
	scheme compress.Scheme
	opts   compress.Options
}{
	{"float32", compress.SchemeNone, compress.Options{}},
	{"int8", compress.SchemeInt8, compress.Options{}},
	{"3lc", compress.SchemeThreeLC, compress.Options{Sparsity: 1.5, ZeroRun: true}},
	{"stoch3", compress.SchemeStoch3QE, compress.Options{Seed: 9}},
	{"mqe1bit", compress.SchemeMQE1Bit, compress.Options{}},
	{"topk", compress.SchemeTopK, compress.Options{Fraction: 0.3, Seed: 9}},
	{"localsteps", compress.SchemeLocalSteps, compress.Options{Interval: 2}},
	{"roundrobin", compress.SchemeRoundRobin, compress.Options{Parts: 3}},
}

// runChaosSoak is the -chaos mode: for every codec, train once clean
// in-process and once over real TCP with the chaos injector on every
// connection and the full defense stack engaged (checksums + resilient
// reconnect-and-replay + seeded retry backoff), then demand the two
// final model states match bit for bit. Any divergence — or a soak in
// which no fault actually fired — exits non-zero.
func runChaosSoak(seed uint64, shards, workers, steps, batch int) {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 200, 50
	trainSet, _ := data.Synthetic(dcfg)
	in := dcfg.C * dcfg.H * dcfg.W
	build := func() *nn.Model { return nn.NewMLP(in, []int{24}, dcfg.Classes, 1) }

	fmt.Printf("chaos soak: %d codecs x %d steps x %d workers over a %d-shard tier (seed %d)\n",
		len(chaosCodecs), steps, workers, shards, seed)

	failed := false
	var totalFaults int64
	for ci, c := range chaosCodecs {
		psCfg := ps.Config{
			Scheme:           c.scheme,
			Opts:             c.opts,
			Workers:          workers,
			MinCompressElems: 1, // the soak model is small; make every codec engage
			Parallelism:      1,
			Optimizer:        opt.TunedSGDConfig(workers, steps),
		}
		ref, err := chaosReferenceRun(build, psCfg, trainSet, workers, steps, batch)
		if err != nil {
			fmt.Printf("  %-10s FAIL (reference run): %v\n", c.name, err)
			failed = true
			continue
		}
		// Each codec draws a decorrelated fault schedule off the soak seed
		// so one seed exercises eight distinct schedules.
		inj := chaos.New(chaos.Config{
			Seed:      seed + uint64(ci)*0x9e3779b97f4a7c15,
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
		got, err := chaosTCPRun(inj, seed, build, psCfg, trainSet, shards, workers, steps, batch)
		st := inj.Stats()
		totalFaults += st.Total()
		switch {
		case err != nil:
			fmt.Printf("  %-10s FAIL: %v (%v)\n", c.name, err, st)
			failed = true
		case !equalWeights(ref, got):
			fmt.Printf("  %-10s FAIL: final weights diverge from clean reference (%v)\n", c.name, st)
			failed = true
		default:
			fmt.Printf("  %-10s ok: bit-identical under %d faults (%v)\n", c.name, st.Total(), st)
		}
	}
	fmt.Printf("chaos soak: %d faults injected across %d codecs\n", totalFaults, len(chaosCodecs))
	if failed {
		fmt.Fprintln(os.Stderr, "3lc-net: chaos soak FAILED")
		os.Exit(1)
	}
	if totalFaults == 0 {
		fmt.Fprintln(os.Stderr, "3lc-net: chaos soak injected zero faults — the run proves nothing; raise -steps or change -chaos-seed")
		os.Exit(1)
	}
	fmt.Println("chaos soak PASSED: every codec bit-identical under injected faults")
}

// chaosReferenceRun trains the soak workload on an in-process single
// server — no sockets, no faults — and returns the final global weights.
func chaosReferenceRun(build func() *nn.Model, psCfg ps.Config, trainSet *data.Dataset,
	workers, steps, batch int) ([]float32, error) {
	global := build()
	srv := ps.NewJob(global, psCfg)
	ws := make([]*ps.Worker, workers)
	rngs := make([]*tensor.RNG, workers)
	for w := range ws {
		ws[w] = newWorker(w, build, global, psCfg)
		rngs[w] = batchRNG(0, w)
	}
	for s := 0; s < steps; s++ {
		srv.BeginStep()
		for w, wk := range ws {
			trainBatch(wk, trainSet, rngs[w], batch)
			wires, _ := wk.CompressGrads()
			if _, err := srv.AddPush(w, wires); err != nil {
				return nil, err
			}
		}
		pulls, _, err := srv.FinishStep()
		if err != nil {
			return nil, err
		}
		for _, wk := range ws {
			if _, err := wk.ApplyPull(pulls); err != nil {
				return nil, err
			}
		}
	}
	return flatWeights(global), nil
}

// chaosTCPRun trains the soak workload over real TCP with inj wrapping
// every listener and dial: resilient shard servers, checksummed
// resilient clients, and the seeded retry schedule. Returns the final
// global weights.
func chaosTCPRun(inj *chaos.Injector, seed uint64, build func() *nn.Model, psCfg ps.Config,
	trainSet *data.Dataset, shards, workers, steps, batch int) ([]float32, error) {
	global := build()
	// The read deadline is the failure detector for stalled connections;
	// it also bounds each resilient reacquire wait on the server, so it
	// must exceed the client's worst-case single backoff (250ms cap).
	timeouts := transport.Timeouts{Read: 2 * time.Second, Write: 2 * time.Second}
	listen := listenAt("127.0.0.1:0")
	tier, err := startShardTier(global, shard.ForModel(global, shards), psCfg,
		transport.ShardServerConfig{Workers: workers, Steps: steps, Timeouts: timeouts, Resilient: true},
		func(s int, _ *transport.ShardServerConfig) net.Listener { return inj.WrapListener(listen(s)) })
	if err != nil {
		return nil, err
	}

	retryPol := transport.RetryPolicy{
		MaxAttempts: 8,
		Base:        25 * time.Millisecond,
		Cap:         250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        seed,
	}
	workerErr := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			worker := newWorker(w, build, global, psCfg)
			// The initial handshake crosses injected connections too; dial
			// failures are part of the schedule, so budget retries for them.
			var cl *transport.ShardClient
			var err error
			for attempt := 0; ; attempt++ {
				cl, err = transport.DialShardedConfig(tier.addrs, w, shard.ForModel(worker.Model, shards), transport.ShardClientConfig{
					Timeouts:  timeouts,
					Checksum:  true,
					Resilient: true,
					Retry:     retryPol,
					Dialer:    inj.Dial,
				})
				if err == nil {
					break
				}
				if attempt >= 10 {
					workerErr <- fmt.Errorf("worker %d dial: %w", w, err)
					return
				}
				time.Sleep(retryPol.Stream(uint64(w)).Backoff(attempt))
			}
			defer cl.Close()
			workerErr <- workerSteps(worker, trainSet, batchRNG(0, w), steps, batch, wholeSet(worker, cl.PushPull))
		}(w)
	}
	if err := drain(workerErr, workers, nil); err != nil {
		return nil, err
	}
	if err := drain(tier.errs, shards, nil); err != nil {
		return nil, fmt.Errorf("shard serve: %w", err)
	}
	return flatWeights(global), nil
}

func flatWeights(m *nn.Model) []float32 {
	var flat []float32
	for _, p := range m.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return flat
}

func equalWeights(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
