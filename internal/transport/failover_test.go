package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"threelc/internal/nn"
	"threelc/internal/shard"
)

// failover is one scenario on a 2-shard tier over loopback TCP, a standby
// ShardServer beside every primary: shard 0 loses its primary (or, with
// standbyDies, its standby) at the top of killStep, abruptly or silently.
type failover struct {
	killStep    int
	silent      bool
	standbyDies bool
	ccfg        ShardClientConfig // what the workers negotiate
}

// holdListener keeps what it accepted reachable. A silently killed server
// drops its sockets without closing them, and a collected socket is closed
// by its finalizer: an EOF where the scenario wants silence.
type holdListener struct {
	net.Listener
	held []net.Conn
}

func (l *holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	l.held = append(l.held, c)
	return c, err
}

// run drives the scenario and checks that the tier left serving — the
// standbys after a primary's death, the primaries after a standby's —
// holds the in-process single-PS reference state bit for bit.
func (f failover) run(t *testing.T) {
	const workers, steps, shards = 2, 6, 2
	cfg := shardTestConfig(workers, steps)
	// Server-side deadlines stay wide: a BSP push read legitimately spans
	// the barrier, which includes another worker's 1s failover detection.
	to := Timeouts{Read: 30 * time.Second, Write: 10 * time.Second}
	f.ccfg.Timeouts = to
	if f.silent {
		// A silently dead primary is only detectable through the CLIENT's
		// read deadline; keep it short so the test converges quickly.
		f.ccfg.Timeouts.Read = time.Second
	}

	// The standbys run their own sub-servers over their OWN model replica:
	// replicated state must never alias the primary's tensors.
	models := [2]*nn.Model{buildShardModel(), buildShardModel()}
	models[1].CopyParamsFrom(models[0])
	asn := shard.ForModel(models[0], shards)
	var addrs [2][]string // primaries, standbys
	errs := [2]chan error{make(chan error, shards), make(chan error, shards)}
	dying := 0
	if f.standbyDies {
		dying = 1
	}
	for tier, model := range models {
		for s, sub := range mustSubServers(t, model, cfg, asn) {
			tcp, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := &holdListener{Listener: tcp}
			defer runtime.KeepAlive(ln)
			addrs[tier] = append(addrs[tier], tcp.Addr().String())
			scfg := ShardServerConfig{Shard: s, NumShards: shards, Workers: workers, Steps: steps,
				AssignmentHash: asn.Hash(), Timeouts: to, Resilient: f.ccfg.Resilient}
			if s == 0 && tier == dying {
				scfg.KillAtStep, scfg.KillSilent = f.killStep, f.silent
			}
			srv := NewShardServer(ln, sub, scfg)
			go func(tier int) { errs[tier] <- srv.Serve() }(tier)
		}
	}
	f.ccfg.Replicas = addrs[1]

	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cl, err := DialShardedConfig(addrs[0], w, shard.ForModel(buildShardModel(), shards), f.ccfg)
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			driveWorker(t, w, steps, cfg, models[0], cl.PushPull)
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for tier, name := range [2]string{"primary", "standby"} {
		killed := 0
		for s := 0; s < shards; s++ {
			if err := <-errs[tier]; errors.Is(err, ErrShardKilled) {
				killed++
			} else if err != nil {
				t.Fatalf("%s serve: %v", name, err)
			}
		}
		want := 0
		if tier == dying {
			want = 1
		}
		if killed != want {
			t.Fatalf("%d %s endpoints killed, want %d", killed, name, want)
		}
	}

	// The surviving tier — which served shard 0 alone from killStep on — must
	// hold the single-PS reference state bit-for-bit for EVERY tensor...
	want := referenceWeights(t, workers, steps)
	var got []float32
	for _, p := range models[1-dying].Params() {
		got = append(got, p.W.Data()...)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("surviving tier's weight %d differs from single-PS reference: %v != %v", i, got[i], want[i])
		}
	}
	// ...and shard 1, which lost nothing, the same on both tiers.
	for _, gi := range asn.Tensors(1) {
		a, b := models[0].Params()[gi].W.Data(), models[1].Params()[gi].W.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("shard 1 tensor %d diverges between primary and standby", gi)
			}
		}
	}
}

// runFailoverMatrix kills shard 0's primary mid-run and at the top of the
// last step — the standby is claimed while it settles — under everything a
// connection can negotiate.
func runFailoverMatrix(t *testing.T, silent bool) {
	for name, ccfg := range map[string]ShardClientConfig{
		"plain":     {},
		"checksum":  {Checksum: true},
		"resilient": {Resilient: true},
	} {
		for _, killStep := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/kill=%d", name, killStep), func(t *testing.T) {
				t.Parallel()
				failover{killStep: killStep, silent: silent, ccfg: ccfg}.run(t)
			})
		}
	}
}

func TestFailoverKilledShardMatchesSinglePS(t *testing.T) { runFailoverMatrix(t, false) }

func TestFailoverSilentDeathDetectedByDeadline(t *testing.T) { runFailoverMatrix(t, true) }

// TestStandbyDeathLeavesPrimaryServing: replication must not add a fault.
// A standby that dies mid-run is dropped by its workers and the primaries
// finish the run alone.
func TestStandbyDeathLeavesPrimaryServing(t *testing.T) {
	failover{killStep: 3, standbyDies: true}.run(t)
}

// TestStandbyRefusals: what a standby seat cannot do is refused where it
// is asked for. A claim replays one whole-set push, so neither a standby's
// connection nor a client that holds one streams per-tensor frames.
func TestStandbyRefusals(t *testing.T) {
	if err := (&frameCodec{standby: true}).streamable(); err == nil {
		t.Error("a standby's connection may stream")
	}
	dial := func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go io.Copy(io.Discard, far) // takes the hello; ends when the client closes
		return near, nil
	}
	cl, err := DialShardedConfig([]string{"primary"}, 0, shard.ForModel(buildShardModel(), 1),
		ShardClientConfig{Replicas: []string{"standby"}, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ch := make(chan IndexedWire, 1)
	ch <- IndexedWire{}
	close(ch)
	if err := cl.PushPullStream(0, ch, nil); err == nil || !strings.Contains(err.Error(), "standbys") {
		t.Errorf("PushPullStream on a client with standbys: %v, want a refusal", err)
	}
	if len(ch) != 0 {
		t.Error("the refused call left the producer's tensors on the channel")
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
