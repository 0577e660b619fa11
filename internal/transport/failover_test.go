package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// runFailoverScenario runs a replicated 2-shard tier over loopback TCP,
// kills shard 0's primary at killStep (abruptly or silently), lets the
// workers fail over to the replica, and checks the surviving tier's model
// state is bit-identical to the in-process single-PS reference.
func runFailoverScenario(t *testing.T, silent bool) {
	const workers, steps, shards, killStep = 2, 6, 2, 3
	cfg := shardTestConfig(workers, steps)
	// Server-side deadlines stay wide: a BSP push read legitimately spans
	// the barrier, which includes another worker's 1s failover detection.
	to := Timeouts{Read: 30 * time.Second, Write: 10 * time.Second}
	clientTo := to
	if silent {
		// A silently dead primary is only detectable through the CLIENT's
		// read deadline; keep it short so the test converges quickly.
		clientTo.Read = time.Second
	}

	global := buildShardModel()
	asn := shard.ForModel(global, shards)
	subs := mustSubServers(t, global, cfg, asn)
	// The replicas run their own sub-servers over their OWN model replica:
	// replicated state must never alias the primary's tensors.
	replicaModel := buildShardModel()
	replicaModel.CopyParamsFrom(global)
	repSubs := mustSubServers(t, replicaModel, cfg, asn)

	listen := func() (net.Listener, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln, ln.Addr().String()
	}
	addrs := make([]string, shards)
	raddrs := make([]string, shards)
	repErr := make(chan error, shards)
	primErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		rln, raddr := listen()
		raddrs[s] = raddr
		go func(s int) {
			repErr <- NewShardReplica(rln, repSubs[s], ShardServerConfig{
				Shard:          s,
				NumShards:      shards,
				Workers:        workers,
				Steps:          steps,
				AssignmentHash: asn.Hash(),
				Timeouts:       to,
			}).Serve()
		}(s)
	}
	for s := 0; s < shards; s++ {
		ln, addr := listen()
		addrs[s] = addr
		scfg := ShardServerConfig{
			Shard:          s,
			NumShards:      shards,
			Workers:        workers,
			Steps:          steps,
			AssignmentHash: asn.Hash(),
			Timeouts:       to,
			ReplicaAddr:    raddrs[s],
		}
		if s == 0 {
			scfg.KillAtStep = killStep
			scfg.KillSilent = silent
		}
		srv := NewShardServer(ln, subs[s], scfg)
		go func() { primErr <- srv.Serve() }()
	}

	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cl, err := DialShardedConfig(addrs, w, shard.ForModel(buildShardModel(), shards),
				ShardClientConfig{Replicas: raddrs, Timeouts: clientTo})
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
	killed, alive := 0, 0
	for s := 0; s < shards; s++ {
		switch err := <-primErr; {
		case err == nil:
			alive++
		case errors.Is(err, ErrShardKilled):
			killed++
		default:
			t.Fatalf("primary serve: %v", err)
		}
	}
	if killed != 1 || alive != 1 {
		t.Fatalf("expected 1 killed + 1 surviving primary, got %d + %d", killed, alive)
	}
	for s := 0; s < shards; s++ {
		if err := <-repErr; err != nil {
			t.Fatalf("replica serve: %v", err)
		}
	}

	// The replica tier — which took over shard 0 mid-run and followed
	// shard 1 by forwarding — must hold the single-PS reference state
	// bit-for-bit for EVERY tensor.
	want := referenceWeights(t, workers, steps)
	var rep []float32
	for _, p := range replicaModel.Params() {
		rep = append(rep, p.W.Data()...)
	}
	for i := range want {
		if want[i] != rep[i] {
			t.Fatalf("replica weight %d differs from single-PS reference: %v != %v", i, rep[i], want[i])
		}
	}
	// The surviving primary's slice (shard 1 lives in `global`) must agree
	// too — replication never disturbed the primary path.
	gp := global.Params()
	for _, gi := range asn.Tensors(1) {
		a, b := gp[gi].W.Data(), replicaModel.Params()[gi].W.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("surviving shard tensor %d diverges between primary and replica", gi)
			}
		}
	}
}

func TestFailoverKilledShardMatchesSinglePS(t *testing.T) {
	runFailoverScenario(t, false)
}

func TestFailoverSilentDeathDetectedByDeadline(t *testing.T) {
	runFailoverScenario(t, true)
}

// gateConn tells, each time its reader comes back for more, how many
// bytes it has been given. A replica's reader posts a frame to the serve
// loop before it reads on, so once it is back after n bytes the frames in
// them are ahead of whatever is sent next, on any connection.
type gateConn struct {
	net.Conn
	got  int64
	back chan int64
}

func (c *gateConn) Read(p []byte) (int, error) {
	c.back <- c.got
	n, err := c.Conn.Read(p)
	c.got += int64(n)
	return n, err
}

func (c *gateConn) await(t *testing.T, n int64) {
	t.Helper()
	for {
		select {
		case got := <-c.back:
			if got >= n {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("the reader did not come back after %d bytes", n)
		}
	}
}

// gateListener hands out gateConns and announces them in accept order.
type gateListener struct {
	net.Listener
	conns chan *gateConn
}

func (l gateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	gc := &gateConn{Conn: c, back: make(chan int64, 16)}
	l.conns <- gc
	return gc, nil
}

// TestReplicaHoldsPushAheadOfForwards: a failed-over worker's push can
// reach the replica's serve loop before the forwards of the steps before
// it do — two connections, two reader goroutines, and a primary that
// never waited for its replica (a rare failure of the failover suite
// under -race, up to two steps apart). The push waits for them instead of
// ending the replica on a barrier violation.
func TestReplicaHoldsPushAheadOfForwards(t *testing.T) {
	const steps = 3
	cfg := shardTestConfig(1, steps)
	model := buildShardModel()
	asn := shard.ForModel(model, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := gateListener{ln, make(chan *gateConn, 2)}
	to := Timeouts{Read: 10 * time.Second, Write: 10 * time.Second}
	sub := mustSubServers(t, model, cfg, asn)[0]
	repErr := make(chan error, 1)
	go func() {
		repErr <- NewShardReplica(gl, sub, ShardServerConfig{
			NumShards: 1, Workers: 1, Steps: steps, AssignmentHash: asn.Hash(), Timeouts: to,
		}).Serve()
	}()
	var sent *countConn // the connection dialed last
	dial := Dialer(func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		sent = &countConn{Conn: c}
		return sent, err
	})

	// The primary's forwarding link, its hello taken in...
	up := &link{to: to, fc: frameCodec{upstream: true}}
	if err := up.open(dial, ln.Addr().String(), asn.Hash()); err != nil {
		t.Fatal(err)
	}
	defer up.c.Close()
	(<-gl.conns).await(t, sent.bytes.Load())
	// ...then the worker, failed over, with its push of the last step...
	cl, err := DialShardedConfig([]string{ln.Addr().String()}, 0, asn, ShardClientConfig{Timeouts: to, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wk := ps.NewWorker(0, buildShardModel(), cfg)
	wk.Model.TrainStep(tensor.New(6, 12), make([]int, 6))
	wires, _ := wk.CompressGrads()
	hello := sent.bytes.Load()
	pulled := make(chan error, 1)
	go func() {
		_, err := cl.PushPull(steps-1, wires)
		pulled <- err
	}()
	// ...and only then the forwards of its pushes of the steps before.
	var fc frameCodec
	for step := 0; step < steps-1; step++ {
		push, err := fc.appendFrame(nil, frame{t: MsgShardPush, step: uint32(step), set: wires})
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			(<-gl.conns).await(t, hello+int64(len(push)))
		}
		if err := up.send(frame{t: MsgReplicaPush, raw: push[frameHeaderLen:]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-pulled; err != nil {
		t.Errorf("push of step %d, sent ahead of the forwards of the steps before: %v", steps-1, err)
	}
	if err := <-repErr; err != nil {
		t.Errorf("replica: %v", err)
	}
}

// TestDialShardedUnreachableShardReturnsError: a dead shard address at
// dial time must come back as an error from DialSharded, not a panic
// from closing a never-opened connection.
func TestDialShardedUnreachableShardReturnsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead, _ := net.Listen("tcp", "127.0.0.1:0")
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here anymore
	defer ln.Close()
	asn := shard.ForModel(buildShardModel(), 2)
	if _, err := DialSharded([]string{ln.Addr().String(), deadAddr}, 0, asn); err == nil {
		t.Fatal("expected dial error for unreachable shard")
	}
}

// TestClientReadDeadlineSurfacesTimeout: a server that accepts a worker
// and then goes silent must fail the blocked PushPull with a net.Error
// timeout once the read deadline passes — not hang forever.
func TestClientReadDeadlineSurfacesTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		<-hold // read nothing, answer nothing: a silently dead server
	}()

	cl, err := DialTimeout(ln.Addr().String(), 0, Timeouts{Read: 100 * time.Millisecond, Write: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.PushPull(0, [][]byte{{byte(0)}})
	if err == nil {
		t.Fatal("expected timeout error from PushPull against a silent server")
	}
	if !IsTimeout(err) {
		t.Fatalf("error %v is not a net.Error timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}
