//go:build race

package compress

// raceDetector reports that the race detector is compiled in. Under it
// sync.Pool drops a quarter of its Puts on purpose, so a path whose
// scratch is pooled re-allocates now and then and its exact
// allocations-per-run cannot be asserted.
const raceDetector = true
