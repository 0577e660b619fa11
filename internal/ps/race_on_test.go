//go:build race

package ps

// raceDetector reports that the race detector is compiled in. Under it
// the runtime makes allocations of its own (a slices.Grow of a raw pull
// wire allocates twice), so a test's allocation totals cannot be asserted.
const raceDetector = true
