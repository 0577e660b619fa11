package transport

import (
	"net"
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
// recycled. The checksum variant adds CRC-32C cover on both directions;
// the benchcheck gate holds it within tolerance of the plain wire at
// 0 allocs/op, which is the whole point: integrity must be free enough
// to leave on. The legacy variant is the v1 Dial client against
// NewServer, the front door the lan-f32 benchmark workload and plain
// `3lc-net` use.
func benchWirePushPull(b *testing.B, checksum, legacy bool) {
	cfg := ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
		Workers:          1,
		MinCompressElems: 1,
		Parallelism:      1,
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
	var cl interface {
		PushPull(step int, wires [][]byte) ([][]byte, error)
		Close() error
	}
	if legacy {
		go NewServer(ln, subs[0], 1, steps).Serve()
		cl, err = Dial(ln.Addr().String(), 0)
	} else {
		go NewShardServer(ln, subs[0], ShardServerConfig{
			NumShards: 1, Workers: 1, Steps: steps, AssignmentHash: asn.Hash(),
		}).Serve()
		cl, err = DialShardedConfig([]string{ln.Addr().String()}, 0, asn, ShardClientConfig{Checksum: checksum})
	}
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
	rng := tensor.NewRNG(31)
	for _, p := range wk.Model.Params() {
		tensor.FillNormal(p.G, 0.01, rng)
	}

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

func BenchmarkSteadyStatePushPullWire(b *testing.B)         { benchWirePushPull(b, false, false) }
func BenchmarkSteadyStatePushPullWireChecksum(b *testing.B) { benchWirePushPull(b, true, false) }
func BenchmarkSteadyStatePushPullWireLegacy(b *testing.B)   { benchWirePushPull(b, false, true) }
