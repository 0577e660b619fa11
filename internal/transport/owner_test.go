package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
)

// TestServerRefusesNonOwnersBytes puts the raw batch-norm wire a worker
// used to send — and the server used to count as traffic and skip — in
// worker 1's push over a real connection, whole-set and streamed: the
// step fails on the server with an error naming the tensor and the
// worker instead of finishing as if nothing had been sent.
func TestServerRefusesNonOwnersBytes(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		t.Run(fmt.Sprintf("streamed=%v", streamed), func(t *testing.T) {
			cfg := shardTestConfig(2, 1)
			global := buildShardModel()
			asn := shard.ForModel(global, 1)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewShardServer(ln, mustSubServers(t, global, cfg, asn)[0], ShardServerConfig{
				NumShards: 1, Workers: 2, Steps: 1, AssignmentHash: asn.Hash(),
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
					cl, err := DialShardedConfig([]string{ln.Addr().String()}, w, asn, ShardClientConfig{})
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
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", owned.Name)) || !strings.Contains(err.Error(), "worker 1 sent") {
				t.Fatalf("Serve() = %v, want a refusal naming tensor %q and worker 1", err, owned.Name)
			}
			<-done
			<-done
		})
	}
}
