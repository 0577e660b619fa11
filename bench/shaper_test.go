package main

import (
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when someone sleeps on it, and returns every sleep
// late by what late says for that sleep: the pacing arithmetic can then be
// held to exact times, which a shared host's real clock cannot give.
type fakeClock struct {
	t      time.Time
	late   func(sleep int) time.Duration
	sleeps int
}

func (c *fakeClock) install(b *bucket) {
	b.now = func() time.Time { return c.t }
	b.sleep = func(d time.Duration) {
		c.t = c.t.Add(d + c.late(c.sleeps))
		c.sleeps++
	}
}

// send paces n bytes through b the way shapedConn.Write does.
func send(b *bucket, n int) {
	for n > 0 {
		c := min(n, shapeChunk)
		b.take(c)
		n -= c
	}
}

// 1 MB at 10 Mbps takes 0.8 s: exactly on a punctual clock, within the
// 2 % the issue allows when every sleep returns late, and longer by
// exactly the stall when one wake-up is later than the shaper forgives.
func TestBucketRate(t *testing.T) {
	const wire = 800 * time.Millisecond
	for _, tc := range []struct {
		name     string
		late     func(sleep int) time.Duration
		min, max time.Duration
		rateErr  [2]float64 // lowest and highest rate error to report
	}{
		{
			name: "punctual sleeps",
			late: func(int) time.Duration { return 0 },
			min:  wire - time.Microsecond, max: wire + time.Microsecond,
			rateErr: [2]float64{0, 1e-6},
		},
		{
			// Accumulated, 245 late sleeps would add 245 ms.
			name: "every sleep 1 ms late",
			late: func(int) time.Duration { return time.Millisecond },
			min:  wire, max: wire + time.Millisecond + time.Microsecond,
			rateErr: [2]float64{0, 0.02},
		},
		{
			// Repaid as a burst, the transfer would still end at 0.8 s.
			name: "one 50 ms stall",
			late: func(sleep int) time.Duration {
				if sleep == 100 {
					return 50 * time.Millisecond
				}
				return 0
			},
			min: wire + 50*time.Millisecond - time.Microsecond, max: wire + 50*time.Millisecond + time.Microsecond,
			rateErr: [2]float64{0.05, 0.07},
		},
	} {
		sh := newShaper(10e6)
		clk := &fakeClock{t: time.Unix(0, 0), late: tc.late}
		clk.install(sh.ingress)
		send(sh.ingress, 1_000_000)
		if got := clk.t.Sub(time.Unix(0, 0)); got < tc.min || got > tc.max {
			t.Errorf("%s: 1 MB at 10 Mbps took %v, want %v to %v", tc.name, got, tc.min, tc.max)
		}
		if e := sh.rateErr(); e < tc.rateErr[0] || e > tc.rateErr[1] {
			t.Errorf("%s: rate error %.5f, want %v to %v", tc.name, e, tc.rateErr[0], tc.rateErr[1])
		}
	}
}

// An idle link earns no credit: after a pause the next transfer still
// takes its full wire time.
func TestBucketIdleIsNotRepaid(t *testing.T) {
	b := newBucket(10e6)
	clk := &fakeClock{t: time.Unix(0, 0), late: func(int) time.Duration { return 0 }}
	clk.install(b)
	send(b, 50_000)
	clk.t = clk.t.Add(100 * time.Millisecond)
	start := clk.t
	send(b, 250_000)
	if got, want := clk.t.Sub(start), 200*time.Millisecond; math.Abs(float64(got-want)) > float64(time.Microsecond) {
		t.Errorf("0.25 MB after an idle gap took %v, want %v", got, want)
	}
}

// sink accepts connections on loopback and discards what they send.
func sink(t *testing.T) (addr string, done func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

// On the real clock and real sockets only the hard side is a property of
// the shaper: it never runs fast, however the host schedules it. 1 MB
// through one connection, or through two at once that share the link
// (doubling it would take 0.4 s), never takes under 0.8 s less 2 %, and the
// connections account that time as wire wait.
func TestShaperNeverRunsFast(t *testing.T) {
	addr, done := sink(t)
	defer done()
	for _, n := range []int{1, 2} {
		sh := newShaper(10e6)
		conns := make([]*shapedConn, n)
		for i := range conns {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = sh.wrap(raw)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Write(make([]byte, 1_000_000/n)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got, floor := time.Since(start), 784*time.Millisecond; got < floor {
			t.Errorf("%d connection(s): 1 MB at 10 Mbps took %v, want at least %v", n, got, floor)
		}
		for i, c := range conns {
			if got := time.Duration(c.slept.Load()); got < 700*time.Millisecond {
				t.Errorf("%d connection(s): connection %d accounts %v of wire wait for a 0.8 s transfer", n, i, got)
			}
			c.Close()
		}
	}
}
