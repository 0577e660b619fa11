package transport

import (
	"net"
	"testing"
	"time"

	"threelc/internal/chaos"
	"threelc/internal/shard"
)

// TestChaosSoakTCPMatchesSinglePS is the in-tree half of the chaos
// contract (the full multi-codec soak lives behind `3lc-net -chaos`): a
// 2-shard resilient tier runs over loopback TCP with a seeded fault
// injector on both the listeners and the client dialer, and the final
// global weights must still be BIT-identical to the clean in-process
// single-server run. Bit flips are caught by CRC-32C and replayed;
// truncates and resets tear connections that the resilient seats
// reacquire — none of it may perturb a single weight. The test also
// fails if the injector dealt no faults, so a config drift that
// silently disables injection cannot pass vacuously.
func TestChaosSoakTCPMatchesSinglePS(t *testing.T) {
	const workers, steps, shards = 2, 6, 2
	cfg := shardTestConfig(workers, steps)

	global := buildShardModel()
	asn := shard.ForModel(global, shards)
	subs := mustSubServers(t, global, cfg, asn)

	inj := chaos.New(chaos.Config{
		Seed:      7,
		BitFlip:   0.03,
		Truncate:  0.01,
		Reset:     0.01,
		DelayProb: 0.02,
		Delay:     5 * time.Millisecond,
		MaxFaults: 48,
	})
	to := Timeouts{Read: 2 * time.Second, Write: 2 * time.Second}
	pol := RetryPolicy{
		MaxAttempts: 8,
		Base:        20 * time.Millisecond,
		Cap:         200 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        7,
	}

	addrs := make([]string, shards)
	serveErr := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		srv := NewShardServer(inj.WrapListener(ln), subs[s], ShardServerConfig{
			Shard:          s,
			NumShards:      shards,
			Workers:        workers,
			Steps:          steps,
			AssignmentHash: asn.Hash(),
			Timeouts:       to,
			Resilient:      true,
		})
		go func() { serveErr <- srv.Serve() }()
	}

	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			// The injector can kill a connection during the handshake
			// itself; a resilient client dials under its retry schedule.
			cl, err := DialShardedConfig(addrs, w, shard.ForModel(buildShardModel(), shards),
				ShardClientConfig{
					Timeouts:  to,
					Resilient: true,
					Retry:     pol,
					Dialer:    inj.Dial,
				})
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

	if st := inj.Stats(); st.Total() == 0 {
		t.Fatalf("injector dealt no faults (%v): the soak proved nothing", st)
	} else {
		t.Logf("chaos: %v", st)
	}

	want := referenceWeights(t, workers, steps)
	var got []float32
	for _, p := range global.Params() {
		got = append(got, p.W.Data()...)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weight %d diverged under chaos: clean %v chaotic %v", i, want[i], got[i])
		}
	}
}
