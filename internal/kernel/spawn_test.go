package kernel

import (
	"sync/atomic"
	"testing"
)

// countSpawns runs fn with a counting SpawnHook installed and returns how
// many goroutines the kernel fan-outs spawned.
func countSpawns(t *testing.T, fn func()) int {
	t.Helper()
	var n atomic.Int64
	SpawnHook = func() { n.Add(1) }
	defer func() { SpawnHook = nil }()
	fn()
	return int(n.Load())
}

// TestForEachChunkSpawnCounts pins the caller-runs-last pool shape: a
// fan-out over k chunks spawns exactly k-1 goroutines (the caller runs the
// final chunk itself), and any input that collapses to a single chunk —
// small n, one worker, or fewer align-groups than workers — spawns none.
func TestForEachChunkSpawnCounts(t *testing.T) {
	cases := []struct {
		name               string
		n, align, workers  int
		wantUsed, wantGoro int
	}{
		{"serial", 100, 1, 1, 1, 0},
		{"four chunks", 100, 5, 4, 4, 3},
		{"smaller than one group", 3, 5, 8, 1, 0},
		{"fewer groups than workers", 10, 5, 8, 2, 1},
		{"empty", 0, 5, 8, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			var used int
			got := countSpawns(t, func() {
				used = forEachChunk(tc.n, tc.align, tc.workers, func(idx, lo, hi int) {
					calls.Add(1)
					if lo < 0 || hi > tc.n || lo >= hi {
						t.Errorf("bad span [%d,%d) for n=%d", lo, hi, tc.n)
					}
				})
			})
			if used != tc.wantUsed {
				t.Errorf("used = %d, want %d", used, tc.wantUsed)
			}
			if int(calls.Load()) != tc.wantUsed {
				t.Errorf("fn ran %d times, want %d", calls.Load(), tc.wantUsed)
			}
			if got != tc.wantGoro {
				t.Errorf("spawned %d goroutines, want %d", got, tc.wantGoro)
			}
		})
	}
}

// TestSmallTensorsSpawnNothing is the satellite regression test: a tensor
// below ParallelThresholdElems resolves to one worker via PassWorkers, and
// the full fused pipeline — parallel reduction, parallel encode, parallel
// decode-add — then runs entirely on the calling goroutine with zero
// spawns.
func TestSmallTensorsSpawnNothing(t *testing.T) {
	n := 1000 // << ParallelThresholdElems
	w := PassWorkers(n, 0)
	if w != 1 {
		t.Fatalf("PassWorkers(%d) = %d, want 1", n, w)
	}
	buf := make([]float32, n)
	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i%11) - 5
	}
	got := countSpawns(t, func() {
		m := float64(AccumulateMaxAbsParallel(buf, in, w)) * 1.0
		wire, _ := EncodeTernaryParallel(buf, m, true, nil, w, nil)
		dst := make([]float32, n)
		if err := DecodeTernaryAddParallel(
			[]TernaryWire{{Body: wire, ZRE: true, M: float32(m)}}, dst, w); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("small-tensor pipeline spawned %d goroutines, want 0", got)
	}
}
