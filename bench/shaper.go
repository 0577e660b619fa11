package main

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// shapeChunk is the largest unit the shaper paces: a Write is cut into
// chunks of at most this size and a Read returns at most this much, so one
// connection cannot hold the link for longer than a chunk's wire time
// while another waits.
const shapeChunk = 4096

// bucket paces one direction of an emulated link with a virtual clock:
// next is the instant the link finishes what it has accepted so far. A
// caller reserves its chunk's wire time on that clock and sleeps until
// the chunk would have left the wire, so connections sharing the bucket
// share its rate.
//
// time.Sleep overshoots. A caller that wakes late and comes straight back
// finds the clock at most one chunk's wire time in the past; that gap is
// forgiven (the clock is kept), so overshoot does not accumulate into a
// lower rate. A longer gap means the link really was idle, or its only
// caller was stalled for that long: the clock restarts at now and the lost
// time is not repaid as a burst. The bucket therefore never runs fast, and
// runs slow by exactly the stalls longer than a chunk, which rateErr shows.
type bucket struct {
	bytesPerSec float64
	grace       time.Duration // one chunk's wire time
	// now and sleep are the clock the bucket paces on: time.Now and
	// time.Sleep, except in the tests that hold the pacing to exact times.
	now   func() time.Time
	sleep func(time.Duration)

	mu         sync.Mutex
	next       time.Time
	burstStart time.Time // when the link last went from idle to busy
	lastWake   time.Time // latest sleep return of the current burst
	busy       time.Duration
	bytes      int64
	burstBytes int64
}

func newBucket(bitsPerSec float64) *bucket {
	bps := bitsPerSec / 8
	return &bucket{
		bytesPerSec: bps,
		grace:       time.Duration(float64(shapeChunk) / bps * float64(time.Second)),
		now:         time.Now,
		sleep:       time.Sleep,
	}
}

// take blocks for the wire time of n bytes and returns how long it took,
// sleep overshoot included.
func (b *bucket) take(n int) time.Duration {
	d := time.Duration(float64(n) / b.bytesPerSec * float64(time.Second))
	b.mu.Lock()
	now := b.now()
	if now.Sub(b.next) >= b.grace {
		b.closeBurst()
		b.next, b.burstStart, b.lastWake = now, now, now
	}
	b.next = b.next.Add(d)
	b.burstBytes += int64(n)
	wake := b.next
	b.mu.Unlock()

	if wake.After(now) {
		b.sleep(wake.Sub(now))
	}
	woke := b.now()
	b.mu.Lock()
	if woke.After(b.lastWake) {
		b.lastWake = woke
	}
	b.mu.Unlock()
	return woke.Sub(now)
}

// closeBurst folds the burst that just ended into the busy totals. Caller
// holds mu.
func (b *bucket) closeBurst() {
	if b.burstBytes > 0 {
		b.busy += b.lastWake.Sub(b.burstStart)
		b.bytes += b.burstBytes
		b.burstBytes = 0
	}
}

// achieved returns the rate the bucket delivered while it was busy, in
// bits per second, and the bytes that went through. A busy spell runs from
// the first reservation after an idle gap to the last wake-up it caused, so
// a late wake-up, forgiven or not, counts against the rate.
func (b *bucket) achieved() (bitsPerSec float64, bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closeBurst()
	if b.busy <= 0 {
		return 0, b.bytes
	}
	return float64(b.bytes) * 8 / b.busy.Seconds(), b.bytes
}

// shaper emulates the parameter server's NIC: every worker connection
// shares one ingress bucket (worker writes, the pushes) and one egress
// bucket (worker reads, the pulls), full duplex.
type shaper struct {
	bitsPerSec float64
	ingress    *bucket
	egress     *bucket
}

func newShaper(bitsPerSec float64) *shaper {
	return &shaper{bitsPerSec: bitsPerSec, ingress: newBucket(bitsPerSec), egress: newBucket(bitsPerSec)}
}

// busy is how long the link has been busy so far, both directions added
// up. In a BSP step the pushes and the pulls follow each other, so the sum
// is the time the link's rate imposed on the steps. Call it between steps,
// when the link is idle.
func (s *shaper) busy() time.Duration {
	var sum time.Duration
	for _, b := range []*bucket{s.ingress, s.egress} {
		b.mu.Lock()
		b.closeBurst()
		sum += b.busy
		b.mu.Unlock()
	}
	return sum
}

// rateErr is the larger relative distance of the two directions' achieved
// rate from the configured one.
func (s *shaper) rateErr() float64 {
	var worst float64
	for _, b := range []*bucket{s.ingress, s.egress} {
		got, n := b.achieved()
		if n == 0 {
			continue
		}
		worst = math.Max(worst, math.Abs(got-s.bitsPerSec)/s.bitsPerSec)
	}
	return worst
}

// shapedConn is a worker-side connection through the shaper.
type shapedConn struct {
	net.Conn
	sh    *shaper
	slept atomic.Int64 // nanoseconds this connection waited for the link
}

func (s *shaper) wrap(c net.Conn) *shapedConn { return &shapedConn{Conn: c, sh: s} }

func (c *shapedConn) Write(p []byte) (int, error) {
	var done int
	for len(p) > 0 {
		n := len(p)
		if n > shapeChunk {
			n = shapeChunk
		}
		c.slept.Add(int64(c.sh.ingress.take(n)))
		w, err := c.Conn.Write(p[:n])
		done += w
		if err != nil {
			return done, err
		}
		p = p[n:]
	}
	return done, nil
}

func (c *shapedConn) Read(p []byte) (int, error) {
	if len(p) > shapeChunk {
		p = p[:shapeChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.slept.Add(int64(c.sh.egress.take(n)))
	}
	return n, err
}
