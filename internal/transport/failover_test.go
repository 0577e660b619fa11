package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"threelc/internal/shard"
)

// TestDialShardedUnreachableShardReturnsError: a dead shard address at
// dial time must come back as an error from DialShardedConfig, not a panic
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
	if _, err := DialShardedConfig([]string{ln.Addr().String(), deadAddr}, 0, asn, ShardClientConfig{}); err == nil {
		t.Fatal("expected dial error for unreachable shard")
	}
}

// TestResilientClientRetriesItsDial: a resilient client dials each shard
// through the loop it redials with, so a shard whose first dials fail is
// reached on its retry stream, within the policy's attempt budget; past the
// budget the dial fails, naming it. A plain client dials once.
func TestResilientClientRetriesItsDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	asn := shard.ForModel(buildShardModel(), 1)
	for _, c := range []struct {
		name      string
		resilient bool
		fail      int // dials that fail before one goes through
		dials     int // dials made, under a budget of 3 attempts
		ok        bool
	}{
		{"plain", false, 1, 1, false},
		{"resilient", true, 2, 3, true},
		{"resilient, budget spent", true, 3, 3, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dials := 0
			dialer := func(addr string) (net.Conn, error) {
				if dials++; dials <= c.fail {
					return nil, errors.New("refused by the test")
				}
				return net.Dial("tcp", addr)
			}
			cl, err := DialShardedConfig([]string{ln.Addr().String()}, 0, asn, ShardClientConfig{
				Resilient: c.resilient,
				Retry:     RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
				Dialer:    dialer,
			})
			if dials != c.dials {
				t.Errorf("%d dials, want %d", dials, c.dials)
			}
			switch {
			case c.ok && err != nil:
				t.Fatalf("dial: %v", err)
			case c.ok:
				cl.Close()
			case err == nil:
				t.Fatal("dial succeeded past its failures")
			case c.resilient && !strings.Contains(err.Error(), "retry budget exhausted"):
				t.Errorf("dial: %v, want the spent retry budget named", err)
			}
		})
	}
}

// TestClientReadDeadlineSurfacesTimeout: a server that accepts a worker
// and then goes silent must fail the blocked PushPull with a net.Error
// timeout once the read deadline passes — not hang forever — on the v1
// client and on the sharded one alike.
func TestClientReadDeadlineSurfacesTimeout(t *testing.T) {
	to := Timeouts{Read: 100 * time.Millisecond, Write: time.Second}
	asn := shard.ForModel(buildShardModel(), 1)
	for _, c := range []struct {
		name  string
		dial  func(addr string) (Seat, error)
		wires [][]byte
	}{
		{"v1", func(addr string) (Seat, error) { return DialTimeoutDialer(addr, 0, to, nil) }, [][]byte{{0}}},
		{"sharded", func(addr string) (Seat, error) {
			return DialShardedConfig([]string{addr}, 0, asn, ShardClientConfig{Timeouts: to})
		}, make([][]byte, len(asn.ShardOf))},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			hold := make(chan struct{})
			defer close(hold)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				<-hold // read nothing, answer nothing: a silently dead server
			}()

			cl, err := c.dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			start := time.Now()
			_, err = cl.PushPull(0, c.wires)
			if err == nil {
				t.Fatal("expected timeout error from PushPull against a silent server")
			}
			if !IsTimeout(err) {
				t.Fatalf("error %v is not a net.Error timeout", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("deadline took %v to fire", elapsed)
			}
		})
	}
}
