package transport

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// TestEntropyShardTCPMatchesSinglePS runs a mixed tier over loopback TCP —
// worker 0 negotiates the Huffman wire stage, worker 1 the LZ stage,
// worker 2 dials plain (a pre-entropy binary), and worker 3 stacks the
// CRC-32C trailer over Huffman-coded bodies — and checks the final
// global state is bit-identical to the in-process single server. One
// session must serve every combination in the same step without a stage
// leaking into model state.
func TestEntropyShardTCPMatchesSinglePS(t *testing.T) {
	const workers, steps, shards = 4, 3, 2
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

	stages := []ShardClientConfig{
		{Entropy: compress.EntropyHuffman},
		{Entropy: compress.EntropyLZ},
		{},
		{Entropy: compress.EntropyHuffman, Checksum: true}, // checksum+huffman
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cl, err := DialShardedConfig(addrs, w, shard.ForModel(buildShardModel(), shards), stages[w])
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
			t.Fatalf("weight %d differs: single %v entropy-tcp %v", i, want[i], got[i])
		}
	}
}

// recordingProxy relays one TCP connection to target, recording the raw
// byte streams in both directions.
type recordingProxy struct {
	addr     string
	mu       sync.Mutex
	toServer bytes.Buffer
	toClient bytes.Buffer
	done     chan struct{}
}

func newRecordingProxy(t *testing.T, target string) *recordingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		cc, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		sc, err := net.Dial("tcp", target)
		if err != nil {
			cc.Close()
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.copy(&p.toServer, sc, cc)
			sc.(*net.TCPConn).CloseWrite()
		}()
		go func() {
			defer wg.Done()
			p.copy(&p.toClient, cc, sc)
			cc.(*net.TCPConn).CloseWrite()
		}()
		wg.Wait()
		cc.Close()
		sc.Close()
	}()
	return p
}

func (p *recordingProxy) copy(rec *bytes.Buffer, dst net.Conn, src net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			rec.Write(buf[:n])
			p.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// TestEntropyOffFramesByteIdentical pins the backward-compatibility
// contract of FlagEntropy: a client that does not negotiate the stage
// emits a byte stream identical to the documented pre-entropy wire
// format, and the server answers it likewise. The test taps the TCP
// stream through a recording proxy and compares every byte against
// frames reconstructed from the pre-entropy layout (hello2 = header +
// placement hash, push2/pull2 = header + plain wire set) around an
// in-process mirror of the same deterministic workload.
func TestEntropyOffFramesByteIdentical(t *testing.T) {
	const workers, steps = 1, 2
	cfg := shardTestConfig(workers, steps)

	global := buildShardModel()
	asn := shard.ForModel(global, 1)
	subs := mustSubServers(t, global, cfg, asn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardServer(ln, subs[0], ShardServerConfig{
		Shard:          0,
		NumShards:      1,
		Workers:        workers,
		Steps:          steps,
		AssignmentHash: asn.Hash(),
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	proxy := newRecordingProxy(t, ln.Addr().String())

	cl, err := DialSharded([]string{proxy.addr}, 0, shard.ForModel(buildShardModel(), 1))
	if err != nil {
		t.Fatal(err)
	}
	driveWorker(t, 0, steps, cfg, global, cl.PushPull)
	cl.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	<-proxy.done

	// Reconstruct the expected pre-entropy byte streams from an
	// in-process mirror of the same deterministic workload.
	mirror := buildShardModel()
	msubs := mustSubServers(t, mirror, cfg, asn)
	wm := buildShardModel()
	wm.CopyParamsFrom(mirror)
	wk := ps.NewWorker(0, wm, cfg)
	rng := tensor.NewRNG(1000)

	var wantToServer, wantToClient bytes.Buffer
	hello := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion})
	var hb [4]byte
	le.PutUint32(hb[:], asn.Hash())
	hello = append(hello, hb[:]...)
	writeTestFrame(t, &wantToServer, MsgShardHello, hello)

	for step := 0; step < steps; step++ {
		x := tensor.New(6, 12)
		tensor.FillNormal(x, 1, rng)
		labels := make([]int, 6)
		for i := range labels {
			labels[i] = (step + i) % 4
		}
		wk.Model.TrainStep(x, labels)
		wires, _ := wk.CompressGrads()

		push := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Step: uint32(step)})
		push = AppendWireSet(push, wires)
		writeTestFrame(t, &wantToServer, MsgShardPush, push)

		msubs[0].BeginStep()
		if _, err := msubs[0].AddPush(0, wires); err != nil {
			t.Fatal(err)
		}
		pulls, _, err := msubs[0].FinishStep()
		if err != nil {
			t.Fatal(err)
		}
		// The client is worker 0, the owner: it is sent the pull less its
		// owner-only slots (ps.Pulls).
		pull := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion, Step: uint32(step)})
		pull = AppendWireSet(pull, msubs[0].OwnerPull())
		writeTestFrame(t, &wantToClient, MsgShardPull, pull)
		if _, err := wk.ApplyPull(pulls); err != nil {
			t.Fatal(err)
		}
	}

	proxy.mu.Lock()
	gotToServer := append([]byte(nil), proxy.toServer.Bytes()...)
	gotToClient := append([]byte(nil), proxy.toClient.Bytes()...)
	proxy.mu.Unlock()
	if !bytes.Equal(gotToServer, wantToServer.Bytes()) {
		t.Errorf("client->server stream differs from pre-entropy format: got %d bytes, want %d",
			len(gotToServer), wantToServer.Len())
	}
	if !bytes.Equal(gotToClient, wantToClient.Bytes()) {
		t.Errorf("server->client stream differs from pre-entropy format: got %d bytes, want %d",
			len(gotToClient), wantToClient.Len())
	}
}

// writeTestFrame frames payload into buf via the production framer.
func writeTestFrame(t *testing.T, buf *bytes.Buffer, typ MsgType, payload []byte) {
	t.Helper()
	if err := WriteFrame(buf, typ, payload); err != nil {
		t.Fatal(err)
	}
}

// TestEntropyHelloRejections covers the negotiation error surface: an
// unknown stage byte is refused at the hello, a replicated shard refuses
// the stage outright (a replica replays plain payloads only), and the
// client constructor refuses the Entropy+Replicas combination. (The mux
// endpoint serves the stage: TestMuxShardServerChecksumPerWorker.)
func TestEntropyHelloRejections(t *testing.T) {
	cfg := shardTestConfig(1, 1)
	global := buildShardModel()
	asn := shard.ForModel(global, 1)

	dialHello := func(addr string, hello []byte) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rw := newConnRW(conn)
		if err := WriteFrame(rw, MsgShardHello, hello); err != nil {
			return err
		}
		if err := rw.Flush(); err != nil {
			return err
		}
		// A rejected hello closes the connection; a served one would
		// block until the step loop, so only the error path returns.
		_, _, err = NewFrameReader(rw).ReadFrame()
		return err
	}

	t.Run("unknown stage byte", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		subs := mustSubServers(t, buildShardModel(), cfg, asn)
		srv := NewShardServer(ln, subs[0], ShardServerConfig{
			NumShards: 1, Workers: 1, Steps: 1, AssignmentHash: asn.Hash(),
		})
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve() }()
		hello := AppendShardHeader(nil, ShardHeader{Version: ShardWireVersion})
		var hb [4]byte
		le.PutUint32(hb[:], asn.Hash())
		hello = append(hello, hb[:]...)
		if err := dialHello(ln.Addr().String(), append(hello, 0x7f)); err == nil {
			t.Error("hello with unknown entropy stage byte was accepted")
		}
		if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "entropy stage") {
			t.Errorf("server error = %v, want unknown entropy stage rejection", err)
		}
	})
}
