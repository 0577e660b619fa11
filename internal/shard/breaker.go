// Per-shard circuit breaker: a wedged shard fails fast instead of
// charging every request the full straggler timeout ladder.
//
// The straggler retry in JobHandle.send absorbs a shard that is merely
// slow. But a shard that is truly wedged — executor goroutine stuck,
// queue permanently full — makes every send burn the entire retry budget
// (seconds each) before erroring, and that turns one dead shard into
// head-of-line blocking at every step barrier.
// The breaker bounds that: after breakerThreshold consecutive
// exhausted-budget failures the shard is declared down, and until the
// cooldown elapses sends fail immediately with ErrShardDown (wrapped, so
// errors.Is works). After the cooldown one request is let through as a
// probe (half-open); its success closes the breaker, its failure re-opens
// the cooldown window. Step barriers therefore always complete — with an
// error naming the dead shard — rather than wedging.
package shard

import (
	"errors"
	"sync"
	"time"
)

// ErrShardDown marks a send rejected by an open circuit breaker: the
// shard exhausted the straggler retry budget on enough consecutive
// requests to be presumed dead, and the cooldown has not elapsed.
var ErrShardDown = errors.New("shard: circuit breaker open (shard presumed down)")

const (
	breakerClosed  = iota // normal operation
	breakerOpen           // rejecting until cooldown elapses
	breakerProbing        // half-open: one probe in flight
)

// breaker is one shard's failure detector, consulted by every send to
// that shard.
type breaker struct {
	threshold int           // consecutive failures to open; 0 disables
	cooldown  time.Duration // open duration before a probe is admitted

	mu       sync.Mutex
	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
}

// allow reports whether a send may proceed. In the open state it fails
// fast until the cooldown elapses, then admits exactly one caller as the
// half-open probe.
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerProbing
		return true
	case breakerProbing:
		return false // one probe at a time
	default:
		return true
	}
}

// success records a completed send: any state collapses back to closed.
func (b *breaker) success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.mu.Unlock()
}

// failure records an exhausted-retry-budget send. Consecutive failures
// reaching the threshold — or a failed half-open probe — open (re-open)
// the breaker.
func (b *breaker) failure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerProbing {
		b.state = breakerOpen
		b.openedAt = time.Now()
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}
