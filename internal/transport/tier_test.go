package transport

import (
	"net"
	"strings"
	"testing"
	"time"

	"threelc/internal/ps"
)

// dialTestTier serves a fresh job to `seats` v1 clients for `steps` steps
// and returns the tier dialed to it and the channel with Serve's result.
func dialTestTier(t *testing.T, seats, steps int) (*DialedTier, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, ps.NewJob(buildShardModel(), shardTestConfig(seats, steps)), seats, steps)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	tier, err := DialTier(seats, false, func(w int) (Seat, error) { return DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, nil) })
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
	within(t, "the server of the abandoned run", func() {
		if err := <-served; err == nil {
			t.Error("Serve finished a run its workers abandoned")
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

// TestDialTierStreamNeedsShardClients: a v1 client has no per-tensor
// frames, and a seat that fails to dial closes the ones before it.
func TestDialTierStreamNeedsShardClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = DialTier(1, true, func(w int) (Seat, error) { return DialTimeoutDialer(ln.Addr().String(), w, Timeouts{}, nil) })
	if err == nil || !strings.Contains(err.Error(), "ShardClient") {
		t.Errorf("streamed tier over a v1 client: %v", err)
	}
	if _, err := DialTier(0, false, nil); err == nil {
		t.Error("a tier of no seats was dialed")
	}
}
