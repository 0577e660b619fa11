package transport

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

func shardTestConfig(workers, steps int) ps.Config {
	return ps.Config{
		Scheme:           compress.SchemeThreeLC,
		Opts:             compress.Options{Sparsity: 1.5, ZeroRun: true},
		Workers:          workers,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(workers, steps),
	}
}

func buildShardModel() *nn.Model { return nn.NewMLP(12, []int{16, 10}, 4, 7) }

// newConnRW pairs a raw test connection's buffered reader and writer, as
// the endpoints do.
func newConnRW(c net.Conn) *bufio.ReadWriter {
	return bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c))
}

// mustSubServers builds the per-shard sub-servers or fails the test; the
// wire tests all run over assignments SubServers accepts by construction.
func mustSubServers(t testing.TB, g *nn.Model, cfg ps.Config, asn shard.Assignment) []*ps.Job {
	t.Helper()
	subs, err := shard.SubServers(g, cfg, asn)
	if err != nil {
		t.Fatalf("SubServers: %v", err)
	}
	return subs
}

// driveWorker runs one worker's BSP loop through a push/pull function.
func driveWorker(t *testing.T, w int, steps int, cfg ps.Config,
	global *nn.Model, pushPull func(step int, wires [][]byte) ([][]byte, error)) {
	t.Helper()
	m := buildShardModel()
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
		pull, err := pushPull(step, wires)
		if err != nil {
			t.Errorf("worker %d step %d: %v", w, step, err)
			return
		}
		if _, err := wk.ApplyPull(pull); err != nil {
			t.Errorf("worker %d step %d apply: %v", w, step, err)
			return
		}
	}
}

// referenceWeights runs the same workload through the in-process single
// server and returns the final global weights.
func referenceWeights(t *testing.T, workers, steps int) []float32 {
	cfg := shardTestConfig(workers, steps)
	global := buildShardModel()
	srv := ps.NewJob(global, cfg)
	ws := make([]*ps.Worker, workers)
	rngs := make([]*tensor.RNG, workers)
	for w := range ws {
		m := buildShardModel()
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

// TestShardedTCPMatchesSinglePS runs a 3-shard tier over loopback TCP with
// multiplexed clients and checks the final sharded global state is
// bit-identical to the in-process single-server run.
func TestShardedTCPMatchesSinglePS(t *testing.T) {
	const workers, steps, shards = 2, 3, 3
	cfg := shardTestConfig(workers, steps)

	global := buildShardModel()
	asn := shard.ForModel(global, shards)
	subs := mustSubServers(t, global, cfg, asn)

	addrs := make([]string, shards)
	serveErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		srv := NewShardServer(ln, subs[s], ShardServerConfig{
			Shard:          s,
			NumShards:      shards,
			Workers:        workers,
			Steps:          steps,
			AssignmentHash: asn.Hash(),
		})
		go func() { serveErr <- srv.Serve() }()
	}

	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			// Each worker computes the placement from its own replica —
			// the determinism the handshake hash then certifies.
			cl, err := DialShardedConfig(addrs, w, shard.ForModel(buildShardModel(), shards), ShardClientConfig{})
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			driveWorker(t, w, steps, cfg, global, cl.PushPull)
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for s := 0; s < shards; s++ {
		if err := <-serveErr; err != nil {
			t.Fatalf("shard serve: %v", err)
		}
	}

	want := referenceWeights(t, workers, steps)
	var got []float32
	for _, p := range global.Params() {
		got = append(got, p.W.Data()...)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weight %d differs: single %v sharded-tcp %v", i, want[i], got[i])
		}
	}
}

// driveWorkerStream runs one worker's BSP loop through the streamed
// per-tensor pipeline: compression emits tensors into the push stream as
// they finish, and the pull is decode-applied per tensor as frames land.
func driveWorkerStream(t *testing.T, w int, steps int, cfg ps.Config, global *nn.Model, cl *ShardClient) {
	t.Helper()
	m := buildShardModel()
	m.CopyParamsFrom(global)
	wk := ps.NewWorker(w, m, cfg)
	params := len(m.Params())
	rng := tensor.NewRNG(1000 + uint64(w))
	for step := 0; step < steps; step++ {
		x := tensor.New(6, 12)
		tensor.FillNormal(x, 1, rng)
		labels := make([]int, 6)
		for i := range labels {
			labels[i] = (step + w + i) % 4
		}
		wk.Model.TrainStep(x, labels)
		ch := make(chan IndexedWire, params)
		go func() {
			wk.CompressGradsStream(func(i int, wire []byte) {
				ch <- IndexedWire{I: i, Wire: wire}
			})
			close(ch)
		}()
		if err := cl.PushPullStream(step, ch, wk.ApplyPullTensor); err != nil {
			t.Errorf("worker %d step %d stream: %v", w, step, err)
			return
		}
	}
}

// TestStreamedTCPMatchesSinglePS runs the per-tensor streamed pipeline —
// workers 0 and 2 stream (push runs queued while later tensors still
// compress, each shard's pull applied once it has arrived whole), worker 1
// exchanges whole sets through PushPull on a resilient connection, under
// the CRC-32C trailer — over a 2-shard resilient TCP tier and checks the
// final global state is bit-identical to the in-process single server.
// Mixing the entry points and the contracts on one tier pins their
// interoperability: each step's pull goes out in a plain and a resilient
// variant.
func TestStreamedTCPMatchesSinglePS(t *testing.T) {
	const workers, steps, shards = 3, 3, 2
	cfg := shardTestConfig(workers, steps)

	global := buildShardModel()
	asn := shard.ForModel(global, shards)
	subs := mustSubServers(t, global, cfg, asn)

	addrs := make([]string, shards)
	serveErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		srv := NewShardServer(ln, subs[s], ShardServerConfig{
			Shard:          s,
			NumShards:      shards,
			Workers:        workers,
			Steps:          steps,
			AssignmentHash: asn.Hash(),
			Resilient:      true,
		})
		go func() { serveErr <- srv.Serve() }()
	}

	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cl, err := DialShardedConfig(addrs, w, shard.ForModel(buildShardModel(), shards), ShardClientConfig{Resilient: w == 1})
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			if w != 1 {
				driveWorkerStream(t, w, steps, cfg, global, cl)
			} else {
				driveWorker(t, w, steps, cfg, global, cl.PushPull)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for s := 0; s < shards; s++ {
		if err := <-serveErr; err != nil {
			t.Fatalf("shard serve: %v", err)
		}
	}

	want := referenceWeights(t, workers, steps)
	var got []float32
	for _, p := range global.Params() {
		got = append(got, p.W.Data()...)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weight %d differs: single %v streamed-tcp %v", i, want[i], got[i])
		}
	}
}

// TestStreamedPushRejectsMalformedStream pins the streamed push's
// protocol enforcement: a duplicate tensor slot, and an end-of-push with
// tensors missing, must fail the step with an error instead of silently
// skewing the aggregate.
func TestStreamedPushRejectsMalformedStream(t *testing.T) {
	run := func(t *testing.T, drive func(rw interface {
		Flush() error
	}, write func(mt MsgType, payload []byte)), wantErr string) {
		t.Helper()
		cfg := shardTestConfig(1, 1)
		global := buildShardModel()
		asn := shard.ForModel(global, 1)
		subs := mustSubServers(t, global, cfg, asn)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardServer(ln, subs[0], ShardServerConfig{
			Shard: 0, NumShards: 1, Workers: 1, Steps: 1, AssignmentHash: asn.Hash(),
		})
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve() }()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rw := newConnRW(c)
		write := func(mt MsgType, payload []byte) {
			if err := WriteFrame(rw, mt, payload); err != nil {
				t.Fatal(err)
			}
		}
		hello := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion})
		var hb [4]byte
		le.PutUint32(hb[:], asn.Hash())
		write(MsgShardHello, append(hello, hb[:]...))
		drive(rw, write)
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		serveErr := <-errc
		if serveErr == nil || !strings.Contains(serveErr.Error(), wantErr) {
			t.Fatalf("Serve() = %v, want error containing %q", serveErr, wantErr)
		}
	}

	// runOf is a run whose entries are the given slots, each the empty wire.
	runOf := func(slots ...int) []byte {
		p := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion})
		prev := -1
		for _, slot := range slots {
			p, prev = appendEntry(p, prev, slot, nil), slot
		}
		return p
	}

	t.Run("duplicate slot", func(t *testing.T) {
		run(t, func(_ interface{ Flush() error }, write func(MsgType, []byte)) {
			write(MsgShardPushRun, runOf(0))
			write(MsgShardPushRun, runOf(0))
		}, "duplicate slot 0")
	})
	t.Run("incomplete push", func(t *testing.T) {
		run(t, func(_ interface{ Flush() error }, write func(MsgType, []byte)) {
			write(MsgShardPushRun, runOf(0))
			write(MsgShardPushLast, runOf())
		}, "incomplete push")
	})
}

// TestV1HelloRefused: a connection that opens with the retired v1 hello,
// [type 1][4B LE worker], is refused by the generic hello check — at a
// NewServer and at a one-shard NewShardServer alike — and takes no seat.
func TestV1HelloRefused(t *testing.T) {
	cfg := shardTestConfig(1, 1)
	global := buildShardModel()
	asn := shard.ForModel(global, 1)
	for name, serve := range map[string]func(net.Listener) *ShardServer{
		"NewServer": func(ln net.Listener) *ShardServer { return NewServer(ln, ps.NewJob(global, cfg), 1, 1) },
		"NewShardServer": func(ln net.Listener) *ShardServer {
			return NewShardServer(ln, mustSubServers(t, global, cfg, asn)[0],
				ShardServerConfig{NumShards: 1, Workers: 1, Steps: 1, AssignmentHash: asn.Hash()})
		},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() { served <- serve(ln).Serve() }()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(conn, MsgType(1), le.AppendUint32(nil, 0)); err != nil {
				t.Fatal(err)
			}
			// A seated connection would be read for its push next, and fail
			// on the hang-up instead.
			conn.Close()
			if err := <-served; err == nil || !strings.Contains(err.Error(), "expected hello, got type 1") {
				t.Errorf("Serve = %v, want the v1 hello refused as an unexpected type", err)
			}
		})
	}
}

// tapConn records every byte a connection reads and writes.
type tapConn struct {
	net.Conn
	in, out *bytes.Buffer
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c tapConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// TestNewServerBytesIgnoreAggregatorSurface: what NewServer puts on the
// sockets, both directions and every worker's, is the same whether its
// aggregator is a *ps.Job — which offers the owner its view of the pull
// and per-tensor pushes — or the job behind a bare StepServer, which
// offers neither. So an aggregator wrapped to time or trace it (as a
// benchmark's traced pass does) moves the bytes of the one it wraps.
func TestNewServerBytesIgnoreAggregatorSurface(t *testing.T) {
	const workers, steps = 2, 3
	cfg := shardTestConfig(workers, steps)
	run := func(wrap func(*ps.Job) StepServer) (in, out [workers]bytes.Buffer) {
		global := buildShardModel()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		srv := NewServer(ln, wrap(ps.NewJob(global, cfg)), workers, steps)
		go func() { serveErr <- srv.Serve() }()
		done := make(chan struct{}, workers)
		for w := range workers {
			go func() {
				defer func() { done <- struct{}{} }()
				cl, err := DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, func(addr string) (net.Conn, error) {
					c, err := net.Dial("tcp", addr)
					return tapConn{c, &in[w], &out[w]}, err
				})
				if err != nil {
					t.Errorf("worker %d dial: %v", w, err)
					return
				}
				defer cl.Close()
				driveWorker(t, w, steps, cfg, global, cl.PushPull)
			}()
		}
		for range workers {
			<-done
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("serve: %v", err)
		}
		return in, out
	}
	in1, out1 := run(func(job *ps.Job) StepServer { return job })
	in2, out2 := run(func(job *ps.Job) StepServer { return struct{ StepServer }{job} })
	for w := range workers {
		if out1[w].Len() == 0 || in1[w].Len() == 0 {
			t.Fatalf("worker %d: tap recorded no traffic", w)
		}
		if !bytes.Equal(out1[w].Bytes(), out2[w].Bytes()) {
			t.Errorf("worker %d: client->server bytes differ: %d for a *ps.Job, %d for a StepServer", w, out1[w].Len(), out2[w].Len())
		}
		if !bytes.Equal(in1[w].Bytes(), in2[w].Bytes()) {
			t.Errorf("worker %d: server->client bytes differ: %d for a *ps.Job, %d for a StepServer", w, in1[w].Len(), in2[w].Len())
		}
	}
}

// TestShardServerRejectsPlacementDrift: a worker whose model layout hashes
// differently must be refused at the handshake.
func TestShardServerRejectsPlacementDrift(t *testing.T) {
	cfg := shardTestConfig(1, 1)
	global := buildShardModel()
	asn := shard.ForModel(global, 2)
	subs := mustSubServers(t, global, cfg, asn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardServer(ln, subs[0], ShardServerConfig{
		Shard: 0, NumShards: 2, Workers: 1, Steps: 1, AssignmentHash: asn.Hash(),
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	bad := asn
	bad.ShardOf = append([]int(nil), asn.ShardOf...)
	bad.ShardOf[0] = 1 - bad.ShardOf[0]
	if _, err := DialShardedConfig([]string{ln.Addr().String(), ln.Addr().String()}, 0, bad, ShardClientConfig{}); err == nil {
		// Dial itself may succeed (the write is buffered); the server must
		// still reject the session.
		t.Log("dial succeeded; checking server-side rejection")
	}
	err = <-serveErr
	if err == nil || !strings.Contains(err.Error(), "placement hash") {
		t.Fatalf("server error %v, want placement-hash rejection", err)
	}
}

func TestShardHeaderRoundTrip(t *testing.T) {
	h := ShardHeader{Version: ShardWireVersion, Shard: 513, Worker: 70000, Step: 1 << 30}
	buf := AppendShardHeader(nil, h)
	if len(buf) != ShardHeaderLen {
		t.Fatalf("encoded length %d, want %d", len(buf), ShardHeaderLen)
	}
	got, rest, err := ParseShardHeader(append(buf, 0xAA, 0xBB))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("rest = %x", rest)
	}

	bad := append([]byte(nil), buf...)
	bad[0] = ShardWireVersion + 1
	if _, _, err := ParseShardHeader(bad); err == nil {
		t.Error("future version accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[1] = 0x01
	if _, _, err := ParseShardHeader(bad); err == nil {
		t.Error("unknown flag bits accepted")
	}
	if _, _, err := ParseShardHeader(buf[:ShardHeaderLen-1]); err == nil {
		t.Error("short header accepted")
	}
}

// TestShardClientAddressCountMismatch pins the obvious misconfiguration.
func TestShardClientAddressCountMismatch(t *testing.T) {
	asn := shard.Assignment{NumShards: 2, ShardOf: []int{0, 1}}
	if _, err := DialShardedConfig([]string{"127.0.0.1:1"}, 0, asn, ShardClientConfig{}); err == nil ||
		!strings.Contains(err.Error(), "shard addresses") {
		t.Fatalf("err = %v, want address-count mismatch", err)
	}
}

// TestShardTierThroughputScalesWithShards measures a loopback dialed
// tier's push/pull step rate at 1 vs 4 shard servers, each shard's codec
// serial (one single-core parameter server per shard). Gated on
// GOMAXPROCS>=4: on smaller hosts sharding cannot add CPU and the test
// skips.
func TestShardTierThroughputScalesWithShards(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: shard scaling needs spare cores", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const workers, warmup, steps = 2, 2, 12
	build := func() *nn.Model { return nn.NewMLP(256, []int{512, 512, 512, 512}, 32, 7) }
	stepsPerSec := func(shards int) float64 {
		cfg := ps.Config{
			Scheme:           compress.SchemeThreeLC,
			Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
			Workers:          workers,
			MinCompressElems: 1,
			Parallelism:      1,
			Optimizer:        opt.DefaultSGDConfig(workers, warmup+steps),
		}
		global := build()
		asn := shard.ForModel(global, shards)
		addrs := make([]string, shards)
		served := make(chan error, shards)
		for s, sub := range mustSubServers(t, global, cfg, asn) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[s] = ln.Addr().String()
			srv := NewShardServer(ln, sub, ShardServerConfig{
				Shard: s, NumShards: shards, Workers: workers, Steps: warmup + steps, AssignmentHash: asn.Hash(),
			})
			go func() { served <- srv.Serve() }()
		}
		tier, err := DialTier(workers, func(w int) (*ShardClient, error) { return DialShardedConfig(addrs, w, asn, ShardClientConfig{}) })
		if err != nil {
			t.Fatal(err)
		}
		wires := make([][][]byte, workers)
		for w := range wires {
			m := build()
			m.CopyParamsFrom(global)
			wk := ps.NewWorker(w, m, cfg)
			x := tensor.New(4, 256)
			tensor.FillNormal(x, 1, tensor.NewRNG(uint64(w)+5))
			wk.Model.TrainStep(x, []int{0, 1, 2, 3})
			wires[w], _ = wk.CompressGrads()
		}
		step := func() {
			tier.BeginStep()
			for w := range wires {
				push := tier.BeginPush(w)
				if err := push.Set(wires[w]); err != nil {
					t.Fatal(err)
				}
				if err := push.End(); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := tier.FinishStep(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up buffer capacities, then measure.
		for i := 0; i < warmup; i++ {
			step()
		}
		start := time.Now()
		for i := 0; i < steps; i++ {
			step()
		}
		rate := float64(steps) / time.Since(start).Seconds()
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		for range addrs {
			if err := <-served; err != nil {
				t.Fatalf("shard serve: %v", err)
			}
		}
		return rate
	}
	one := stepsPerSec(1)
	four := stepsPerSec(4)
	t.Logf("steps/sec: 1 shard %.1f, 4 shards %.1f (%.2fx)", one, four, four/one)
	if four < 1.3*one {
		t.Errorf("4-shard throughput %.1f steps/s is not >=1.3x the 1-shard %.1f", four, one)
	}
}
