package train

import (
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
		packed     leg // what the packed wire takes off
		loss       float64
	}{
		{"exact", false, leg{66314, 88124, 111816}, dead, leg{4436, 5704, 7288}, 2.1453512050696872},
		{"recompress", true, leg{64584, 65212, 58009}, 0, leg{4500, 5728, 5004}, 2.376589226034254},
	} {
		cfg := tinyConfig(d, steps)
		cfg.Regions, cfg.RegionRecompress = 2, c.recompress
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := leg{c.before.push - dead - c.packed.push, c.before.pull - c.packed.pull, c.before.wan - c.wanLoses - c.packed.wan}
		if got := (leg{res.TotalPushBytes, res.TotalPullBytes, res.TotalWANBytes}); got != want {
			t.Errorf("%s: push, pull and inter-region bytes %+v, want %+v = %+v before ps.Pushes - %d dead (inter-region: %d) - %+v packed",
				c.name, got, want, c.before, dead, c.wanLoses, c.packed)
		}
		if res.FinalLoss != c.loss {
			t.Errorf("%s: final loss %v moved from %v", c.name, res.FinalLoss, c.loss)
		}
	}
}
