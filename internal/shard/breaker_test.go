package shard

import (
	"errors"
	"strings"
	"testing"
	"time"

	"threelc/internal/compress"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/tensor"
)

// TestBreakerStateMachine walks the closed -> open -> half-open -> closed
// lifecycle directly.
func TestBreakerStateMachine(t *testing.T) {
	b := breaker{threshold: 2, cooldown: 10 * time.Millisecond}
	if !b.allow() {
		t.Fatal("fresh breaker must allow")
	}
	b.failure()
	if !b.allow() {
		t.Fatal("one failure under the threshold must not open the breaker")
	}
	b.failure() // second consecutive failure: threshold reached
	if b.allow() {
		t.Fatal("open breaker admitted a send before the cooldown elapsed")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed: the half-open probe must be admitted")
	}
	if b.allow() {
		t.Fatal("a second concurrent probe was admitted")
	}
	b.failure() // probe failed: back to open, cooldown restarts
	if b.allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("re-opened cooldown elapsed: next probe must be admitted")
	}
	b.success() // probe succeeded: closed again
	if !b.allow() {
		t.Fatal("successful probe must close the breaker")
	}
	// Successes reset the consecutive-failure count.
	b.failure()
	b.success()
	b.failure()
	if !b.allow() {
		t.Fatal("failure count must reset on success (failures were not consecutive)")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := breaker{threshold: 0}
	for i := 0; i < 10; i++ {
		b.failure()
	}
	if !b.allow() {
		t.Fatal("a breaker with threshold 0 must never open")
	}
}

// TestBreakerFailsFastOnWedgedShard pins the tier-level behavior: once a
// shard exhausts the straggler retry budget often enough, further sends
// reject immediately with ErrShardDown instead of burning the full
// timeout ladder per request.
func TestBreakerFailsFastOnWedgedShard(t *testing.T) {
	cfg := ps.Config{
		Scheme:           compress.SchemeInt8,
		Workers:          2,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(2, 1),
	}
	global := nn.NewMLP(12, []int{16, 10}, 4, 7)
	cl := mustCluster(t, global, cfg, Config{
		Shards:           2,
		QueueDepth:       1,
		Timeout:          time.Millisecond,
		Retries:          1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // never half-opens within the test
		SlowShard: func(shard, step int) {
			if shard == 1 {
				time.Sleep(200 * time.Millisecond)
			}
		},
	})
	defer cl.Close()

	m := nn.NewMLP(12, []int{16, 10}, 4, 7)
	m.CopyParamsFrom(global)
	wk := ps.NewWorker(0, m, cfg)
	rng := tensor.NewRNG(3)
	x := tensor.New(6, 12)
	tensor.FillNormal(x, 1, rng)
	wk.Model.TrainStep(x, []int{0, 1, 2, 3, 0, 1})
	wires, _ := wk.CompressGrads()

	// Drive pushes until the wedged shard exhausts a retry budget once.
	cl.BeginStep()
	var firstErr error
	for w := 0; w < 8 && firstErr == nil; w++ {
		firstErr = addPush(cl, 0, wires)
	}
	if firstErr == nil {
		t.Fatal("wedged shard never exhausted the retry budget")
	}
	if !strings.Contains(firstErr.Error(), "straggler") {
		t.Fatalf("first error %q should be the exhausted straggler budget", firstErr)
	}

	// The breaker (threshold 1) is now open: the next send must fail fast
	// with ErrShardDown, not re-run the timeout ladder.
	start := time.Now()
	err := addPush(cl, 0, wires)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("send after breaker opened: err = %v, want ErrShardDown", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("open-breaker rejection took %v: must fail fast, not retry", d)
	}
}

// TestStragglerBackoffDeterministic pins the straggler retry jitter:
// the same RetrySeed reproduces the exact backoff schedule, distinct
// shards draw decorrelated streams, and disabling jitter
// recovers the bare capped-doubling ladder.
func TestStragglerBackoffDeterministic(t *testing.T) {
	cfg := ps.Config{
		Scheme:           compress.SchemeInt8,
		Workers:          2,
		MinCompressElems: 1,
		Parallelism:      1,
		Optimizer:        opt.DefaultSGDConfig(2, 1),
	}
	mk := func(c Config) *JobHandle {
		return mustCluster(t, nn.NewMLP(12, []int{16, 10}, 4, 7), cfg, c)
	}

	base := Config{Shards: 2, Timeout: 10 * time.Millisecond, Retries: 3, RetrySeed: 42}
	a := mk(base)
	defer a.Close()
	b := mk(base)
	defer b.Close()
	diffSeed := mk(Config{Shards: 2, Timeout: 10 * time.Millisecond, Retries: 3, RetrySeed: 43})
	defer diffSeed.Close()

	for sh := 0; sh < 2; sh++ {
		for attempt := 0; attempt < 4; attempt++ {
			da := a.pols[sh].Backoff(attempt)
			if db := b.pols[sh].Backoff(attempt); da != db {
				t.Fatalf("shard %d attempt %d: same seed gave %v vs %v", sh, attempt, da, db)
			}
			if dc := diffSeed.pols[sh].Backoff(attempt); da == dc {
				t.Errorf("shard %d attempt %d: seeds 42 and 43 both gave %v", sh, attempt, da)
			}
		}
	}
	// Distinct shards must not back off in lockstep.
	if a.pols[0].Backoff(0) == a.pols[1].Backoff(0) &&
		a.pols[0].Backoff(1) == a.pols[1].Backoff(1) {
		t.Error("shard lanes 0 and 1 share a jitter stream: backoffs are in lockstep")
	}

	// Jitter disabled: the schedule is the bare doubling ladder.
	plain := mk(Config{Shards: 1, Timeout: 10 * time.Millisecond, Retries: 3, RetryJitter: -1})
	defer plain.Close()
	for attempt, want := range []time.Duration{10, 20, 40, 80} {
		if got := plain.pols[0].Backoff(attempt); got != want*time.Millisecond {
			t.Fatalf("attempt %d: backoff = %v, want %v", attempt, got, want*time.Millisecond)
		}
	}
}
