package train

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/ps"
)

// The owner (ps.Owner) takes the server's step for the tensors it is not
// sent on the push it made this step (ps.Pulls), so it must push every
// step, have that push aggregated and apply every pull the step it comes.
// The next three tests fail if it could drop, lag, or be discarded.

// TestOwnerNeverDrops: a dropout interval for the owner is refused at
// set-up, naming it.
func TestOwnerNeverDrops(t *testing.T) {
	cfg := tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 4)
	cfg.Dropouts = []Dropout{{Worker: ps.Owner, From: 1, To: 2}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("worker %d, the owner", ps.Owner)) {
		t.Errorf("a dropout of the owner: got %v, want a refusal naming worker %d", err, ps.Owner)
	}
}

// TestOwnerNeverLags: under Staleness 1 worker w applies the pull from
// w mod 2 steps ago, and the owner's delay is 0 — its replica ends bit for
// bit that of worker 2, whose delay is 0 too, and not that of worker 1,
// which lags a step.
func TestOwnerNeverLags(t *testing.T) {
	cfg := tinyConfig(Design{Name: "3LC (s=1.75)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.75, ZeroRun: true}}, 6)
	cfg.Staleness = 1
	models := captureModels(&cfg)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	replica := func(w int) []uint32 { return paramsBits((*models)[1+w]) } // [0] is the global model
	if !slices.Equal(replica(ps.Owner), replica(2)) {
		t.Error("the owner's replica differs from worker 2's: the owner lags")
	}
	if slices.Equal(replica(ps.Owner), replica(1)) {
		t.Error("the owner's replica is worker 1's, which lags a step")
	}
}

// TestOwnerIsNeverDiscarded: with as many backup workers as there are
// workers but one, a step aggregates one push — the owner's, the only one
// of its tensors (ps.Pushes) — whether the stragglers are drawn from
// compute jitter or dropped in worker order, and in the latter also while
// a worker is away, which leaves the owner among the last three present.
// A step that discarded the owner's push could not finish (ps.NoPush).
func TestOwnerIsNeverDiscarded(t *testing.T) {
	for _, jitter := range []float64{0, 0.8} {
		cfg := tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 8)
		cfg.BackupWorkers, cfg.ComputeJitterStd = cfg.Workers-1, jitter
		if jitter == 0 {
			cfg.Dropouts = []Dropout{{Worker: 2, From: 2, To: 5}}
		}
		if _, err := Run(cfg); err != nil {
			t.Errorf("jitter %v, %d backup workers: %v", jitter, cfg.BackupWorkers, err)
		}
	}
}
