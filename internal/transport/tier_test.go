package transport

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"threelc/internal/ps"
	"threelc/internal/shard"
)

// dialTestTier serves a fresh job on one shard to `seats` seats for `steps`
// steps and returns the tier dialed to it and the channel with Serve's
// result.
func dialTestTier(t *testing.T, seats, steps int) (*DialedTier, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	global := buildShardModel()
	asn := shard.ForModel(global, 1)
	srv := NewShardServer(ln, ps.NewJob(global, shardTestConfig(seats, steps)),
		ShardServerConfig{NumShards: 1, Workers: seats, Steps: steps, AssignmentHash: asn.Hash()})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	tier, err := DialTier(seats, func(w int) (*ShardClient, error) {
		return DialShardedConfig([]string{ln.Addr().String()}, w, asn, ShardClientConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	return tier, served
}

// within fails the test unless fn returns inside the deadline: the
// adapter's refusals must be errors, never hangs.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hangs", what)
	}
}

// TestDialedTierMissingSeatFailsFast: a step that does not push every seat
// would leave the server's barrier waiting forever. FinishStep says so at
// once, and Close ends the round trip the other seat had already started.
func TestDialedTierMissingSeatFailsFast(t *testing.T) {
	tier, served := dialTestTier(t, 2, 3)
	// A push the server accepts, so that it goes on to wait for seat 1's.
	wires, _ := ps.NewWorker(0, buildShardModel(), shardTestConfig(2, 3)).CompressGrads()
	within(t, "a step without seat 1", func() {
		tier.BeginStep()
		push := tier.BeginPush(0)
		if err := push.Set(wires); err != nil {
			t.Error(err)
		}
		if err := push.End(); err != nil {
			t.Error(err)
		}
		_, _, err := tier.FinishStep()
		if err == nil || !strings.Contains(err.Error(), "seat 1 did not push") {
			t.Errorf("FinishStep = %v, want the missing seat named", err)
		}
		if _, _, err := tier.FinishStep(); err == nil {
			t.Error("a failed tier finished a later step")
		}
		tier.Close()
	})
	within(t, "the server of the run its workers left", func() {
		if err := <-served; err == nil {
			t.Error("Serve finished a run its workers left unfinished")
		}
	})
}

// TestDialedTierHoldsNoState: the checkpoint surface is empty both ways.
func TestDialedTierHoldsNoState(t *testing.T) {
	tier, served := dialTestTier(t, 1, 1)
	if st := tier.AppendState([]byte("x")); string(st) != "x" {
		t.Errorf("AppendState appended %q", st[1:])
	}
	if err := tier.RestoreState(nil); err != nil {
		t.Errorf("RestoreState(nothing) = %v", err)
	}
	if err := tier.RestoreState([]byte{1}); err == nil {
		t.Error("RestoreState accepted state a dialed tier cannot hold")
	}
	tier.Close()
	<-served
}

// TestDialTierClosesOpenSeatsOnFailure: a tier needs a seat, and a seat
// that fails to dial closes the ones dialed before it.
func TestDialTierClosesOpenSeatsOnFailure(t *testing.T) {
	if _, err := DialTier(0, nil); err == nil {
		t.Error("a tier of no seats was dialed")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	asn := shard.ForModel(buildShardModel(), 1)
	hungUp := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			_, err = io.Copy(io.Discard, c) // the hello, then the hang-up
		}
		hungUp <- err
	}()
	_, err = DialTier(2, func(w int) (*ShardClient, error) {
		if w == 1 {
			return nil, errors.New("no route")
		}
		return DialShardedConfig([]string{ln.Addr().String()}, w, asn, ShardClientConfig{})
	})
	if err == nil || !strings.Contains(err.Error(), "dial seat 1: no route") {
		t.Errorf("DialTier = %v, want seat 1's dial failure", err)
	}
	within(t, "seat 0's hang-up", func() {
		if err := <-hungUp; err != nil {
			t.Errorf("seat 0's connection: %v", err)
		}
	})
}
