package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// benchWirePushPull measures one full push/pull round trip over a real
// loopback TCP shard connection — worker compress, frame write, server
// decode+aggregate+update, pull frame, worker apply — with every buffer
// recycled. The checksum variant runs a resilient client against a
// resilient server, which adds CRC-32C cover on both directions; the
// benchcheck gate holds it within tolerance of the plain wire at
// 0 allocs/op, which is the whole point: integrity must be free enough
// to leave on.
func benchWirePushPull(b *testing.B, resilient bool) {
	cfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
		Workers:          1,
		MinCompressElems: 1,
		Optimizer:        opt.DefaultSGDConfig(1, 1024),
	}
	global := nn.NewMLP(784, []int{256}, 10, 7)
	asn := shard.ForModel(global, 1)
	subs, err := shard.SubServers(global, cfg, asn)
	if err != nil {
		b.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	const steps = 1 << 30 // outlives any b.N; the server dies with the client
	go NewShardServer(ln, subs[0], ShardServerConfig{
		NumShards: 1, Workers: 1, Steps: steps, AssignmentHash: asn.Hash(), Resilient: resilient,
	}).Serve()
	cl, err := DialShardedConfig([]string{ln.Addr().String()}, 0, asn, ShardClientConfig{Resilient: resilient})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		cl.Close()
		ln.Close()
	}()

	m := nn.NewMLP(784, []int{256}, 10, 7)
	m.CopyParamsFrom(global)
	wk := ps.NewWorker(0, m, cfg)
	backward := fixedGrads(m, tensor.NewRNG(31))

	step := 0
	roundTrip := func() {
		wires, _ := wk.CompressGrads()
		pull, err := cl.PushPull(step, wires)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wk.ApplyPull(pull); err != nil {
			b.Fatal(err)
		}
		step++
		b.StopTimer() // forming e + g is backward's work, not the round trip's
		backward()
		b.StartTimer()
	}
	// Warm up buffer capacities on both ends of the wire.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
}

func BenchmarkSteadyStatePushPullWire(b *testing.B)         { benchWirePushPull(b, false) }
func BenchmarkSteadyStatePushPullWireChecksum(b *testing.B) { benchWirePushPull(b, true) }

// BenchmarkSteadyStatePushPullWireF32 is the lan-f32 shape over loopback
// TCP: the 768-1024-1024-10 MLP (1.85M parameters, 7.4 MB a wire set) as
// SchemeNone, two workers on NewServer's session, each step both workers'
// push, the server's raw first add and add, its optimizer sweep writing
// the raw pull, and the pull's two writes and raw applies. A push wire is
// a view of the worker's gradient (ps.NewWorker), and the wires of both
// directions are spliced into their frames, so a byte of the exchange is
// copied only by the socket.
func BenchmarkSteadyStatePushPullWireF32(b *testing.B) {
	x := newF32Exchange(b, func() *nn.Model { return nn.NewMLP(768, []int{1024, 1024}, 10, 1) }, 2, 1<<30)
	defer x.close() // the session, mid-run, ends with the hang-up as its error
	for i := 0; i < 3; i++ {
		x.exchange(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.exchange(b)
	}
	b.StopTimer()
}

// BenchmarkStreamedPushPullWire is the per-tensor pipeline at the shape
// of the benchmark's tiny-stream workload: a 258-tensor MLP (768 → 64×48
// → 10), two workers streaming to two shards over loopback TCP, each step
// CompressGradsStream → PushPullStream → ApplyPullTensor. Beside the time
// it reports, from counting connections on both ends, writes/op — what
// the flush policy made of the step, exactly 8 however the compressor is
// paced: a run per worker, shard and direction — and framing-gain: what the frame-per-tensor
// layout of shard wire version 3 would have framed the step's 1 032
// tensors with (21 bytes a tensor — prefix, header and slot — and a
// 17-byte end a push) over what the sockets carry beyond the tensors'
// wires. CI floors it; a run per flush reads about 8, a frame per tensor
// 1. Its model has 128 batch-norm vectors, so it also reports what the
// workers put on the wire in a step, push-B/step, and owner-gain: the
// bytes of owner-only tensors (ps.Pushes) a step would carry if every
// worker sent them over the bytes it does carry, which is the worker count
// and which CI floors too — a change that quietly re-sends them reads 1.
// (push-B/step read 70 454 when those vectors and the 65 biases travelled
// raw; packed, the same step is 65 302.) The pull side is its mirror:
// pull-B/step is what the workers were sent in a step, and owner-pull-gain
// the bytes of owner-only tensors the pulls would carry if the owner were
// sent them too over the bytes they do carry (ps.Pulls) — the worker count
// again, floored in CI: a change that sends the owner its own step back
// reads 1. owner-update-gain is the owner's owner-only slots packed as the
// gradients they were pushed as before the servers relayed them, over their
// bytes packed as the updates the owner pushes now: a deterministic byte
// count, about 2 on this fixture and floored in CI, so a change that goes
// back to pushing gradients reads 1. The caller's per-step channel and the call's own set-up
// allocate by design (see TestStreamedStepAllocsIndependentOfTensorCount),
// so the name stays clear of the SteadyStatePushPull zero-allocs pattern.
func BenchmarkStreamedPushPullWire(b *testing.B) {
	const workers, shards = 2, 2
	cfg := shardTestConfig(workers, 1024)
	cfg.Opts.Sparsity, cfg.MinCompressElems = 1.75, 256
	tier := newStreamTier(b, func() *nn.Model { return nn.NewMLP(768, repeat(64, 48), 10, 7) },
		cfg, shards, ShardClientConfig{}, nil)
	step := 0
	pushed := make([][][]byte, workers) // each worker's last wire set
	pulled := make([][]int, workers)    // each worker's last pull, bytes a tensor
	var wireB atomic.Int64              // every wire pushed and pulled
	apply := make([]func(i int, wire []byte) error, workers)
	for w, wk := range tier.workers {
		pulled[w] = make([]int, len(wk.Model.Params()))
		apply[w] = func(i int, wire []byte) error {
			pulled[w][i] = len(wire)
			wireB.Add(int64(len(wire)))
			return wk.ApplyPullTensor(i, wire)
		}
	}
	roundTrip := func() {
		var wg sync.WaitGroup
		for w, cl := range tier.clients {
			wk := tier.workers[w]
			ch := make(chan IndexedWire, len(wk.Model.Params()))
			wg.Add(2)
			go func() {
				defer wg.Done()
				pushed[w], _ = wk.CompressGradsStream(func(i int, wire []byte) {
					wireB.Add(int64(len(wire)))
					ch <- IndexedWire{I: i, Wire: wire}
				})
				close(ch)
			}()
			go func() {
				defer wg.Done()
				if err := cl.PushPullStream(step, ch, apply[w]); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		step++
		b.StopTimer()
		for _, backward := range tier.backwards {
			backward()
		}
		b.StartTimer()
	}
	// Warm up buffer capacities on both ends of the wire.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	count := func() (total wrote) {
		for w := range tier.clients {
			for s := range tier.servers {
				for _, c := range []*countConn{tier.conns[w][s], tier.servers[s].conn(w)} {
					d := c.snap()
					total.writes, total.bytes = total.writes+d.writes, total.bytes+d.bytes
				}
			}
		}
		return total
	}
	before, wire0 := count(), wireB.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	d := count().since(before)
	b.ReportMetric(float64(d.writes)/float64(b.N), "writes/op")
	tensors := len(tier.workers[0].Model.Params())
	perTensor := b.N * workers * (2*tensors*(frameHeaderLen+ShardHeaderLen+4) + shards*(frameHeaderLen+ShardHeaderLen))
	b.ReportMetric(float64(perTensor)/float64(d.bytes-(wireB.Load()-wire0)), "framing-gain")
	pushB, ownedSent, ownedOnce := 0, 0, 0
	pullB, ownedPulled, ownedToAll := 0, 0, 0
	ownedGrad, ownedUpdate := 0, 0 // the owner's owner-only slots, packed as gradients and as updates
	for w, set := range pushed {
		pushB += ps.WireBytes(set)
		for i, p := range tier.workers[w].Model.Params() {
			pullB += pulled[w][i]
			if ps.OwnerOnly(p) {
				ownedSent += len(set[i])
				ownedOnce += len(pushed[ps.Owner][i])
				ownedPulled += pulled[w][i]
				ownedToAll += pulled[1][i] // what a worker that is sent it receives
				if w == ps.Owner {
					ownedGrad += len(compress.NewExempt(cfg.Scheme, p.G.Shape()).CompressInto(p.G, nil))
					ownedUpdate += len(set[i])
				}
			}
		}
	}
	b.ReportMetric(float64(pushB), "push-B/step")
	b.ReportMetric(float64(ownedOnce)/float64(ownedSent), "owner-gain")
	b.ReportMetric(float64(pullB), "pull-B/step")
	b.ReportMetric(float64(ownedToAll)/float64(ownedPulled), "owner-pull-gain")
	b.ReportMetric(float64(ownedGrad)/float64(ownedUpdate), "owner-update-gain")
}
