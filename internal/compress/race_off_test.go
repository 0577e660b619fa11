//go:build !race

package compress

const raceDetector = false
