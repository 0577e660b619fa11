// Package retry is the repo-wide backoff policy: capped exponential
// delays with deterministic, seeded jitter.
//
// Every retry loop in the tree — the transport tier's resilient reconnect
// path, the chaos soak's recovery budget — shares this one Policy so
// schedules are tuned in a single place and, critically, are
// reproducible: the jitter for a given (seed, attempt) pair is a pure
// function, not a rand.Rand draw, so a failed run can be replayed
// decision-for-decision. Distinct retry streams (per shard, per worker)
// decorrelate by deriving their seed with Stream, which keeps independent
// loops from synchronizing their retries into load spikes — the
// thundering-herd failure mode of bare doubling schedules.
//
//3lc:det
package retry

import "time"

// Defaults used for zero-valued Policy fields.
const (
	DefaultAttempts   = 4
	DefaultBase       = 50 * time.Millisecond
	DefaultCap        = 2 * time.Second
	DefaultMultiplier = 2.0
)

// Policy is a capped exponential backoff schedule with deterministic
// jitter. The zero value is a usable default policy (4 attempts, 50ms
// base, 2s cap, 2x growth, no jitter).
type Policy struct {
	// MaxAttempts is the total number of tries, including the first.
	// Zero means DefaultAttempts; negative means 1 (no retries).
	MaxAttempts int
	// Base is the nominal delay before the first retry. Zero means
	// DefaultBase.
	Base time.Duration
	// Cap bounds the nominal (pre-jitter) delay. Zero means DefaultCap.
	Cap time.Duration
	// Multiplier is the per-attempt growth factor. Zero means
	// DefaultMultiplier; values below 1 are treated as 1 (constant
	// delay).
	Multiplier float64
	// Jitter is the symmetric jitter fraction in [0, 1): the delay for
	// attempt i is the nominal delay scaled by a deterministic factor in
	// [1-Jitter, 1+Jitter] derived from (Seed, i). Zero means no jitter.
	Jitter float64
	// Seed selects the jitter stream. Two loops with the same Seed see
	// the same jitter sequence; decorrelate them with Stream.
	Seed uint64
}

// Attempts returns the effective total attempt budget (>= 1).
func (p Policy) Attempts() int {
	if p.MaxAttempts == 0 {
		return DefaultAttempts
	}
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Stream returns a copy of p whose jitter stream is derived from salt,
// so independent retry loops (per shard, worker...) sharing one
// configured policy draw decorrelated jitter.
func (p Policy) Stream(salt uint64) Policy {
	p.Seed = splitmix64(p.Seed ^ (salt + 0x9e3779b97f4a7c15))
	return p
}

// Backoff returns the delay to sleep before retry number attempt
// (attempt 0 = the delay after the first failure). The result is a pure
// function of the policy and attempt: nominal = min(Cap, Base *
// Multiplier^attempt), scaled by the deterministic jitter factor.
func (p Policy) Backoff(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	base := p.Base
	if base <= 0 {
		base = DefaultBase
	}
	ceil := p.Cap
	if ceil <= 0 {
		ceil = DefaultCap
	}
	mult := p.Multiplier
	if mult == 0 {
		mult = DefaultMultiplier
	}
	if mult < 1 {
		mult = 1
	}
	d := float64(base)
	limit := float64(ceil)
	for i := 0; i < attempt && d < limit; i++ {
		d *= mult
	}
	if d > limit {
		d = limit
	}
	if j := p.Jitter; j > 0 {
		if j >= 1 {
			j = 0.999
		}
		// Uniform in [-1, 1) from the top 53 bits of a splitmix64 draw.
		u := float64(splitmix64(p.Seed^uint64(attempt+1))>>11) / (1 << 52)
		d *= 1 + j*(u-1)
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix,
// the standard cheap way to turn structured integers into independent-
// looking streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
