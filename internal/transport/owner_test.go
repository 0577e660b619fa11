package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// TestServerRefusesNonOwnersBytes puts the raw batch-norm wire a worker
// used to send — and the server used to count as traffic and skip — in
// worker 1's push over a real connection, whole-set and streamed: the
// step fails on the server with an error naming the tensor and the
// worker instead of finishing as if nothing had been sent. On a resilient
// connection too: a refused push is the push's fault, not the
// connection's, so the server does not wait for a replay it would have to
// refuse again on top of what it had taken of the first.
func TestServerRefusesNonOwnersBytes(t *testing.T) {
	for _, c := range []struct {
		name                string
		streamed, resilient bool
	}{{"streamed=false", false, false}, {"streamed=true", true, false}, {"resilient", true, true}} {
		streamed := c.streamed
		t.Run(c.name, func(t *testing.T) {
			cfg := shardTestConfig(2, 1)
			global := buildShardModel()
			asn := shard.ForModel(global, 1)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewShardServer(ln, mustSubServers(t, global, cfg, asn)[0], ShardServerConfig{
				NumShards: 1, Workers: 2, Steps: 1, AssignmentHash: asn.Hash(), Resilient: c.resilient,
			})
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve() }()

			var owned *nn.Param
			slot := -1
			sets := make([][][]byte, 2)
			for w := range sets {
				m := buildShardModel()
				m.CopyParamsFrom(global)
				wk := ps.NewWorker(w, m, cfg)
				rng := tensor.NewRNG(40 + uint64(w))
				for i, p := range m.Params() {
					tensor.FillNormal(p.G, 0.01, rng)
					if slot < 0 && ps.OwnerOnly(p) {
						owned, slot = p, i
					}
				}
				sets[w], _ = wk.CompressGrads()
			}
			if len(sets[1][slot]) != 0 {
				t.Fatalf("worker 1 compresses %d bytes for %s, which it does not push", len(sets[1][slot]), owned.Name)
			}
			sets[1][slot] = sets[0][slot]

			done := make(chan struct{}, 2)
			for w, set := range sets {
				go func() {
					defer func() { done <- struct{}{} }()
					cl, err := DialShardedConfig([]string{ln.Addr().String()}, w, asn, ShardClientConfig{Resilient: c.resilient})
					if err != nil {
						t.Error(err)
						return
					}
					defer cl.Close()
					// The client's own error is the hang-up; the server's says why.
					if streamed {
						ch := make(chan IndexedWire, len(set))
						for i, wire := range set {
							ch <- IndexedWire{I: i, Wire: wire}
						}
						close(ch)
						cl.PushPullStream(0, ch, func(int, []byte) error { return nil })
					} else {
						cl.PushPull(0, set)
					}
				}()
			}
			err = <-serveErr
			ln.Close() // a resilient client's redial finds no server
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", owned.Name)) || !strings.Contains(err.Error(), "worker 1 sent") {
				t.Fatalf("Serve() = %v, want a refusal naming tensor %q and worker 1", err, owned.Name)
			}
			<-done
			<-done
		})
	}
}

// losesPull is a connection that fails the read after its third write —
// hello, push 0, push 1 — so the client loses the pull of step 1 and, if it
// is resilient, redials and replays that push.
type losesPull struct {
	net.Conn
	writes int
}

func (c *losesPull) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func (c *losesPull) Read(p []byte) (int, error) {
	if c.writes == 3 {
		c.Conn.Close()
		return 0, errors.New("losesPull: the pull of step 1 is lost")
	}
	return c.Conn.Read(p)
}

// TestOwnerIsSentItsView holds every way a pull reaches a worker to
// ps.Pulls: the owner's seat receives its owner-only slots empty — a zero
// length in a wire set or in a run's entry — and every other seat receives
// them full, over one shard, two shards, streamed, and a pull re-answered
// to a resilient replay. A NewServer seat, which is offered what a bare
// StepServer offers, receives them full, the owner's too. The workers end
// with bit-identical replicas: the update the owner applies is the one the
// server relays.
func TestOwnerIsSentItsView(t *testing.T) {
	const workers, steps = 2, 5
	for _, c := range []struct {
		name      string
		shards    int
		newServer bool
		stream    bool
		ccfg      ShardClientConfig
		replay    bool // worker 0's first connection to shard 0 loses the pull of step 1
	}{
		{name: "NewServer", shards: 1, newServer: true},
		{name: "v2", shards: 1},
		{name: "2 shards", shards: 2},
		{name: "streamed", shards: 1, stream: true},
		{name: "2 shards streamed", shards: 2, stream: true},
		{name: "resilient replay", shards: 1, ccfg: ShardClientConfig{Resilient: true}, replay: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := shardTestConfig(workers, steps)
			to := Timeouts{Read: 30 * time.Second, Write: 10 * time.Second}
			global := buildShardModel()
			asn := shard.ForModel(global, c.shards)
			var addrs []string
			served := make(chan error, c.shards)
			for s, sub := range mustSubServers(t, global, cfg, asn) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, ln.Addr().String())
				var srv interface{ Serve() error }
				if c.newServer {
					srv = NewServer(ln, sub, workers, steps)
				} else {
					srv = NewShardServer(ln, sub, ShardServerConfig{Shard: s, NumShards: c.shards, Workers: workers, Steps: steps,
						AssignmentHash: asn.Hash(), Timeouts: to, Resilient: c.ccfg.Resilient})
				}
				go func() { served <- srv.Serve() }()
			}

			// sent[w][step][i] is the length of slot i of the pull worker w
			// received at step.
			sent := make([][][]int, workers)
			replicas := make([]*ps.Worker, workers)
			dials := 0
			done := make(chan struct{}, workers)
			for w := range workers {
				sent[w] = make([][]int, steps)
				go func() {
					defer func() { done <- struct{}{} }()
					m := buildShardModel()
					m.CopyParamsFrom(global)
					wk := ps.NewWorker(w, m, cfg)
					replicas[w] = wk
					var cl pushPuller
					var sc *ShardClient
					var err error
					if c.newServer {
						cl, err = DialTimeoutDialer(addrs[0], w, Timeouts{}, nil)
					} else {
						ccfg := c.ccfg
						ccfg.Timeouts = to
						if c.replay && w == ps.Owner {
							ccfg.Dialer = func(addr string) (net.Conn, error) {
								conn, err := net.Dial("tcp", addr)
								if dials++; err == nil && dials == 1 {
									conn = &losesPull{Conn: conn}
								}
								return conn, err
							}
						}
						sc, err = DialShardedConfig(addrs, w, shard.ForModel(m, c.shards), ccfg)
						cl = sc
					}
					if err != nil {
						t.Errorf("worker %d dial: %v", w, err)
						return
					}
					defer cl.Close()
					rng := tensor.NewRNG(1000 + uint64(w))
					for step := range steps {
						x := tensor.New(6, 12)
						tensor.FillNormal(x, 1, rng)
						wk.Model.TrainStep(x, []int{0, 1, 2, 3, 0, 1})
						sent[w][step] = make([]int, len(m.Params()))
						if c.stream {
							ch := make(chan IndexedWire, len(m.Params()))
							wk.CompressGradsStream(func(i int, wire []byte) { ch <- IndexedWire{I: i, Wire: wire} })
							close(ch)
							err = sc.PushPullStream(step, ch, func(i int, wire []byte) error {
								sent[w][step][i] = len(wire)
								return wk.ApplyPullTensor(i, wire)
							})
						} else {
							wires, _ := wk.CompressGrads()
							var pull [][]byte
							if pull, err = cl.PushPull(step, wires); err == nil {
								for i, wire := range pull {
									sent[w][step][i] = len(wire)
								}
								_, err = wk.ApplyPull(pull)
							}
						}
						if err != nil {
							t.Errorf("worker %d step %d: %v", w, step, err)
							return
						}
					}
				}()
			}
			for range workers {
				<-done
			}
			for range c.shards {
				if err := <-served; err != nil {
					t.Fatalf("serve: %v", err)
				}
			}
			if t.Failed() {
				return
			}
			if c.replay && dials < 2 {
				t.Fatalf("worker %d dialed shard 0 %d times: no replay", ps.Owner, dials)
			}

			params := global.Params()
			for w := range workers {
				for step := range steps {
					for i, p := range params {
						n, pulls := sent[w][step][i], ps.Pulls(w, p) || c.newServer
						if pulls == (n == 0) && ps.OwnerOnly(p) {
							t.Errorf("step %d: worker %d was sent %d bytes of %s (want them: %v)", step, w, n, p.Name, pulls)
						}
					}
				}
			}
			want := replicas[1].Model.Params()
			for i, p := range replicas[ps.Owner].Model.Params() {
				if !p.W.Equal(want[i].W) {
					t.Errorf("the owner's replica of %s differs from worker 1's", p.Name)
				}
			}
		})
	}
}
