// Package chaos is the deterministic fault-injection layer for the
// transport tier: a net.Conn / net.Listener wrapper that perturbs real
// sockets with the failure modes WAN training actually sees — flipped
// bits, truncated writes, abrupt connection resets, write stalls, and
// delayed reads (the delayed-ACK shape) — driven by a seeded,
// reproducible schedule instead of ambient randomness.
//
// Determinism model: every wrapped connection gets its own fault stream,
// derived by mixing the injector seed with the connection's admission
// index, and each I/O operation on that connection consumes the stream
// in order. For a fixed seed, the decisions along any one connection are
// a pure function of its (index, operation ordinal) — reruns of a
// failed soak replay the same per-connection schedule, with only the
// cross-connection interleaving left to the scheduler. Stalls and
// delays also reorder traffic at connection granularity: one stalled
// connection's frames land after a neighbor's later frames, which is
// exactly the reordering a multi-path WAN exhibits.
//
// The injector plugs into the transport tier through the transport.Dialer
// hook (Injector.Dial matches its signature) and by wrapping the listener
// a server tier is handed (Injector.WrapListener), so every dial and
// listen point in the tree can be subjected to the same schedule. It is
// the adversary half of the chaos contract; the defenses it validates —
// a resilient connection's CRC-32C frame checksums, reconnect-and-replay,
// retry/backoff — live in transport.
//
//3lc:det
package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error the injector fabricates, so tests and
// retry loops can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Config is one injector's fault mix. Probabilities are per I/O
// operation on a wrapped connection; zero disables that fault class.
type Config struct {
	// Seed selects the fault schedule. The same seed over the same
	// per-connection operation sequences reproduces the same decisions.
	Seed uint64
	// BitFlip is the per-write probability of flipping one bit of the
	// buffer before it hits the socket (the write still succeeds —
	// corruption in flight, not failure).
	BitFlip float64
	// Truncate is the per-write probability of writing only a prefix and
	// then severing the connection: the canonical torn frame.
	Truncate float64
	// Reset is the per-write probability of closing the connection
	// outright before any bytes move.
	Reset float64
	// StallProb stalls a write by Stall before it proceeds: the peer's
	// read deadline sees a silent peer.
	StallProb float64
	Stall     time.Duration
	// DelayProb delays a read by Delay before it is served — the
	// delayed-ACK shape, and the lever that reorders one connection's
	// traffic relative to another's.
	DelayProb float64
	Delay     time.Duration
	// MaxFaults bounds the total faults injected across the whole
	// injector (0 = unlimited): soaks use it to guarantee the fault load
	// stays within the recovery budget of the tier under test.
	MaxFaults int64
}

// Stats counts the faults an injector has actually dealt.
type Stats struct {
	Conns     int64
	BitFlips  int64
	Truncates int64
	Resets    int64
	Stalls    int64
	Delays    int64
}

// Total is the number of injected faults across every class.
func (s Stats) Total() int64 {
	return s.BitFlips + s.Truncates + s.Resets + s.Stalls + s.Delays
}

func (s Stats) String() string {
	return fmt.Sprintf("conns=%d bitflips=%d truncates=%d resets=%d stalls=%d delays=%d",
		s.Conns, s.BitFlips, s.Truncates, s.Resets, s.Stalls, s.Delays)
}

// Injector wraps connections with a seeded fault schedule. One injector
// may wrap any number of listeners and dialers; they share its fault
// budget and stats.
type Injector struct {
	cfg    Config
	conns  atomic.Int64 // admission index allocator
	faults atomic.Int64

	bitFlips  atomic.Int64
	truncates atomic.Int64
	resets    atomic.Int64
	stalls    atomic.Int64
	delays    atomic.Int64
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Conns:     in.conns.Load(),
		BitFlips:  in.bitFlips.Load(),
		Truncates: in.truncates.Load(),
		Resets:    in.resets.Load(),
		Stalls:    in.stalls.Load(),
		Delays:    in.delays.Load(),
	}
}

// spend takes one unit of fault budget; a false return means the
// injector is out of budget and the operation must pass through clean.
func (in *Injector) spend() bool {
	if in.cfg.MaxFaults <= 0 {
		return true
	}
	for {
		n := in.faults.Load()
		if n >= in.cfg.MaxFaults {
			return false
		}
		if in.faults.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// WrapConn wraps one connection with the next fault stream.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	idx := in.conns.Add(1)
	return &conn{
		Conn: c,
		in:   in,
		rng:  splitmix64(in.cfg.Seed ^ uint64(idx)*0x9e3779b97f4a7c15),
	}
}

// Dial opens a TCP connection and wraps it. Its signature matches
// transport.Dialer.
func (in *Injector) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return in.WrapConn(c), nil
}

// WrapListener wraps a listener so every accepted connection carries the
// injector's schedule; hand the result to a server tier in place of ln.
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c), nil
}

// SetDeadline forwards to the wrapped listener when it supports
// deadlines (a *net.TCPListener does). Embedding the net.Listener
// interface would otherwise hide the method, and the transport tier's
// deadline-bounded accept loops — the resilient reacquire path — would
// block forever under injection.
func (l *listener) SetDeadline(t time.Time) error {
	if dl, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return dl.SetDeadline(t)
	}
	return nil
}

// conn is one wrapped connection: a deterministic fault stream over an
// underlying net.Conn. The schedule words are drawn under the lock; the
// underlying I/O always runs outside it, so a write stalled on TCP
// backpressure never blocks the connection's concurrent read path (the
// streamed push/pull window overlaps the two).
type conn struct {
	net.Conn
	in *Injector

	mu  sync.Mutex
	rng uint64
}

// draw consumes the connection's next two schedule words: a fault
// selector and an auxiliary position word. Both are drawn on every
// operation so the schedule shape does not depend on which faults
// actually fire.
func (c *conn) draw() (sel, aux uint64) {
	c.mu.Lock()
	c.rng = splitmix64(c.rng)
	sel = c.rng
	c.rng = splitmix64(c.rng)
	aux = c.rng
	c.mu.Unlock()
	return sel, aux
}

// prob converts a schedule word to a uniform in [0, 1).
func prob(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

func (c *conn) Write(b []byte) (int, error) {
	sel, aux := c.draw()
	p := prob(sel)
	cfg := &c.in.cfg
	switch {
	case p < cfg.Reset:
		if c.in.spend() {
			c.in.resets.Add(1)
			c.Conn.Close()
			return 0, fmt.Errorf("%w: connection reset on write", ErrInjected)
		}
	case p < cfg.Reset+cfg.Truncate:
		if len(b) > 0 && c.in.spend() {
			c.in.truncates.Add(1)
			n := int(aux % uint64(len(b)))
			if n > 0 {
				c.Conn.Write(b[:n])
			}
			c.Conn.Close()
			return n, fmt.Errorf("%w: write truncated at %d/%d bytes", ErrInjected, n, len(b))
		}
	case p < cfg.Reset+cfg.Truncate+cfg.BitFlip:
		if len(b) > 0 && c.in.spend() {
			c.in.bitFlips.Add(1)
			// Corrupt a copy: the caller's buffer is not ours to mutate.
			corrupted := append([]byte(nil), b...)
			bit := aux % uint64(8*len(b))
			corrupted[bit/8] ^= 1 << (bit % 8)
			return c.Conn.Write(corrupted)
		}
	case p < cfg.Reset+cfg.Truncate+cfg.BitFlip+cfg.StallProb:
		if cfg.Stall > 0 && c.in.spend() {
			c.in.stalls.Add(1)
			time.Sleep(cfg.Stall)
		}
	}
	return c.Conn.Write(b)
}

func (c *conn) Read(b []byte) (int, error) {
	sel, _ := c.draw()
	cfg := &c.in.cfg
	if prob(sel) < cfg.DelayProb && cfg.Delay > 0 && c.in.spend() {
		c.in.delays.Add(1)
		time.Sleep(cfg.Delay)
	}
	return c.Conn.Read(b)
}

// splitmix64 is the SplitMix64 step/finalizer (same mix as
// internal/retry): cheap, full-avalanche, and stateless per draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
