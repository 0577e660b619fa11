//go:build race

package transport

// raceDetector reports that the race detector is compiled in. Under it
// sync.Pool drops a quarter of its Puts on purpose and the runtime makes
// allocations of its own, so a test's exact allocations-per-run cannot be
// asserted.
const raceDetector = true
