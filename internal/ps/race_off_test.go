//go:build !race

package ps

const raceDetector = false
