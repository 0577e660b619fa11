package transport

import (
	"net"
	"testing"
	"time"

	"threelc/internal/shard"
)

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
		{"v1", func(addr string) (Seat, error) { return DialTimeout(addr, 0, to) }, [][]byte{{0}}},
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
