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
	for _, c := range []struct {
		name            string
		recompress      bool
		push, pull, wan int64 // before ps.Pushes
		wanLoses        int64
		loss            float64
	}{
		{"exact", false, 66314, 88124, 111816, dead, 2.1453512050696872},
		{"recompress", true, 64584, 65212, 58009, 0, 2.376589226034254},
	} {
		cfg := tinyConfig(d, steps)
		cfg.Regions, cfg.RegionRecompress = 2, c.recompress
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalPushBytes != c.push-dead || res.TotalPullBytes != c.pull {
			t.Errorf("%s: local leg push %d pull %d, want %d (= %d - %d) and %d", c.name,
				res.TotalPushBytes, res.TotalPullBytes, c.push-dead, c.push, dead, c.pull)
		}
		if want := c.wan - c.wanLoses; res.TotalWANBytes != want {
			t.Errorf("%s: inter-region bytes %d, want %d (= %d - %d)", c.name, res.TotalWANBytes, want, c.wan, c.wanLoses)
		}
		if res.FinalLoss != c.loss {
			t.Errorf("%s: final loss %v moved from %v", c.name, res.FinalLoss, c.loss)
		}
	}
}
