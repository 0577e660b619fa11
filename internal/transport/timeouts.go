package transport

import (
	"errors"
	"net"
	"time"

	"threelc/internal/retry"
)

// RetryPolicy is the transport tier's retry/backoff schedule: capped
// exponential delays with deterministic seeded jitter, shared through
// internal/retry so every retry loop in the tree is tuned (and
// reproduced) in one place. The zero
// value is a sane default; see retry.Policy for the knobs.
type RetryPolicy = retry.Policy

// Timeouts bounds how long a single framed read or write may block on a
// connection. Without deadlines a silently dead peer — a worker whose
// machine lost power, a parameter-server shard behind a partitioned link —
// parks PushPull (and the server's read loop) forever: TCP keeps the
// socket "established" until the kernel's keepalive fires hours later.
// With deadlines, the blocked operation fails with a net.Error whose
// Timeout() reports true, which callers surface (and a resilient client
// recovers from by redialing).
//
// Read covers one frame receive. On the BSP protocol a pull read spans the
// whole barrier — every worker's compute plus the server's update — so
// Read must comfortably exceed a step time, not a network round trip.
// Write covers one flush — every frame queued on the connection since the
// last, one write — so a stream of many frames gives a stalled peer one
// deadline, not one per frame. Zero disables the respective deadline.
type Timeouts struct {
	Read  time.Duration
	Write time.Duration
}

// beforeRead arms (or clears) the connection's read deadline for one
// frame receive.
func (t Timeouts) beforeRead(c net.Conn) {
	if t.Read > 0 {
		c.SetReadDeadline(time.Now().Add(t.Read))
	}
}

// beforeWrite arms (or clears) the connection's write deadline for one
// flush.
func (t Timeouts) beforeWrite(c net.Conn) {
	if t.Write > 0 {
		c.SetWriteDeadline(time.Now().Add(t.Write))
	}
}

// IsTimeout reports whether err (or anything it wraps) is a network
// timeout — the failure mode deadlines convert a dead peer into.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
