package train

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"threelc/internal/compress"
	"threelc/internal/ps"
)

// TestNonOwnersExemptBytesLeaveTheRegionTier counts what ps.Pushes takes
// off a hierarchy. The golden counts are this 4-worker, 2-region, 10-step
// 3LC run's at the commit before the rule, when every worker still pushed
// the batch-norm vectors only worker 0's copy of was read. The local leg
// loses the three non-owners' exempt wires in either mode; the exact relay
// bundled those wires onto the inter-region link and loses them there too,
// while the requantising relay already forwarded them for region 0 alone
// and keeps its count; the final loss moves in neither.
//
// Since the packed float32 wire every exempt tensor that is still sent is
// shorter as well: the packed column is what the repacking takes off each
// count, so a count at the commit before it is the one here plus packed,
// and the final loss — the wire is lossless — is that commit's to the bit.
//
// Since ps.Pulls the owner is not sent its owner-only tensors either:
// ownerPull is what that takes off the local leg's pull count. The
// inter-region link still carries them, once per region — region 0's
// other workers are sent them — and the loss does not move.
func TestNonOwnersExemptBytesLeaveTheRegionTier(t *testing.T) {
	d := Design{Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.0, ZeroRun: true}}
	const steps = 10
	var dead int64 // what a non-owner no longer sends in a step
	for _, p := range tinyConfig(d, steps).BuildModel().Params() {
		if !ps.Pushes(1, p) {
			dead += int64(1 + 4*p.W.Len())
		}
	}
	dead *= steps * 3
	if dead == 0 {
		t.Fatal("the model has no owner-only tensor")
	}
	type leg struct{ push, pull, wan int64 }
	for _, c := range []struct {
		name       string
		recompress bool
		before     leg // before ps.Pushes
		wanLoses   int64
		packed     leg   // what the packed wire takes off
		ownerPull  int64 // what ps.Pulls takes off the pull
		loss       float64
	}{
		{"exact", false, leg{66314, 88124, 111816}, dead, leg{4436, 5704, 7288}, 1068, 2.1453512050696872},
		{"recompress", true, leg{64584, 65212, 58009}, 0, leg{4500, 5728, 5004}, 1072, 2.376589226034254},
	} {
		cfg := tinyConfig(d, steps)
		cfg.Regions, cfg.RegionRecompress = 2, c.recompress
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := leg{c.before.push - dead - c.packed.push, c.before.pull - c.packed.pull - c.ownerPull, c.before.wan - c.wanLoses - c.packed.wan}
		if got := (leg{res.TotalPushBytes, res.TotalPullBytes, res.TotalWANBytes}); got != want {
			t.Errorf("%s: push, pull and inter-region bytes %+v, want %+v = %+v before ps.Pushes - %d dead (inter-region: %d) - %+v packed - %d the owner is not sent",
				c.name, got, want, c.before, dead, c.wanLoses, c.packed, c.ownerPull)
		}
		if res.FinalLoss != c.loss {
			t.Errorf("%s: final loss %v moved from %v", c.name, res.FinalLoss, c.loss)
		}
	}
}

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
