package train

import (
	"math"
	"testing"

	"threelc/internal/compress"
)

// hierDesigns mirrors the eight CLI designs of ParseDesign — the full
// codec matrix the hierarchical topology must preserve.
var hierDesigns = []Design{
	{Name: "32-bit float", Scheme: compress.SchemeNone},
	{Name: "8-bit int", Scheme: compress.SchemeInt8},
	{Name: "Stoch 3-value + QE", Scheme: compress.SchemeStoch3QE},
	{Name: "MQE 1-bit int", Scheme: compress.SchemeMQE1Bit},
	{Name: "25% sparsification", Scheme: compress.SchemeTopK,
		Opts: compress.Options{Fraction: 0.25}},
	{Name: "5% sparsification", Scheme: compress.SchemeTopK,
		Opts: compress.Options{Fraction: 0.05}},
	{Name: "2 local steps", Scheme: compress.SchemeLocalSteps,
		Opts: compress.Options{Interval: 2}},
	{Name: "3LC (s=1.50)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.5, ZeroRun: true}},
}

// TestHierarchicalMatchesFlat pins the central invariant of the two-level
// topology: in exact mode the region tier is a pure relay, so a 2-region
// run produces a bit-identical learning trajectory and identical local
// wire traffic to the flat run for every codec — only the WAN accounting
// and virtual time differ.
func TestHierarchicalMatchesFlat(t *testing.T) {
	for _, d := range hierDesigns {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			flatCfg := tinyConfig(d, 6)
			hierCfg := tinyConfig(d, 6)
			hierCfg.Regions = 2

			flat, err := Run(flatCfg)
			if err != nil {
				t.Fatal(err)
			}
			hier, err := Run(hierCfg)
			if err != nil {
				t.Fatal(err)
			}

			if flat.Regions != 1 || hier.Regions != 2 {
				t.Fatalf("Regions recorded as %d / %d, want 1 / 2", flat.Regions, hier.Regions)
			}
			if flat.FinalLoss != hier.FinalLoss {
				t.Errorf("final loss differs: flat %v hierarchical %v", flat.FinalLoss, hier.FinalLoss)
			}
			if flat.FinalAccuracy != hier.FinalAccuracy {
				t.Errorf("final accuracy differs: flat %v hierarchical %v", flat.FinalAccuracy, hier.FinalAccuracy)
			}
			if flat.TotalPushBytes != hier.TotalPushBytes || flat.TotalPullBytes != hier.TotalPullBytes {
				t.Errorf("local traffic differs: flat %d/%d hierarchical %d/%d",
					flat.TotalPushBytes, flat.TotalPullBytes, hier.TotalPushBytes, hier.TotalPullBytes)
			}
			for i := range flat.StepRecords {
				a, b := flat.StepRecords[i], hier.StepRecords[i]
				if a.Loss != b.Loss || a.PushBytes != b.PushBytes || a.PullBytes != b.PullBytes {
					t.Fatalf("step %d diverges: flat %+v hierarchical %+v", i, a, b)
				}
				if b.WANBytes <= 0 {
					t.Fatalf("step %d recorded no WAN traffic in hierarchical run", i)
				}
				if a.WANBytes != 0 {
					t.Fatalf("step %d recorded WAN traffic %d in flat run", i, a.WANBytes)
				}
			}
			if flat.TotalWANBytes != 0 {
				t.Errorf("flat run accumulated WAN bytes %d", flat.TotalWANBytes)
			}
			if hier.TotalWANBytes <= 0 {
				t.Error("hierarchical run accumulated no WAN bytes")
			}
			// The slow inter-region link (100 Mbps default) adds
			// un-overlapped time the flat run never pays.
			if hier.TotalVirtualSec <= flat.TotalVirtualSec {
				t.Errorf("hierarchical virtual time %v not above flat %v",
					hier.TotalVirtualSec, flat.TotalVirtualSec)
			}
		})
	}
}

// TestHierarchicalRecompressConverges exercises fused re-encode mode: the
// region aggregator decode-accumulates local pushes and re-encodes one
// residual stream per tensor, which changes the trajectory (aggregator-side
// error accumulation) but must still learn and must move fewer WAN bytes
// than relaying every worker bundle.
func TestHierarchicalRecompressConverges(t *testing.T) {
	d := Design{Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.0, ZeroRun: true}}

	exactCfg := tinyConfig(d, 40)
	exactCfg.Regions = 2
	recCfg := tinyConfig(d, 40)
	recCfg.Regions = 2
	recCfg.RegionRecompress = true

	exact, err := Run(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(recCfg)
	if err != nil {
		t.Fatal(err)
	}

	if math.IsNaN(rec.FinalLoss) || math.IsInf(rec.FinalLoss, 0) {
		t.Fatalf("recompress run diverged: final loss %v", rec.FinalLoss)
	}
	if rec.FinalAccuracy < 0.3 {
		t.Errorf("recompress accuracy %v too low for a learnable task", rec.FinalAccuracy)
	}
	// Exact mode bundles 2 worker wires per region; recompress forwards a
	// single re-encoded stream, so the WAN leg must shrink.
	if rec.TotalWANBytes >= exact.TotalWANBytes {
		t.Errorf("recompress WAN bytes %d not below exact-mode %d",
			rec.TotalWANBytes, exact.TotalWANBytes)
	}
}

// TestHierarchicalConfigRejections pins the unsupported combinations.
func TestHierarchicalConfigRejections(t *testing.T) {
	base := tinyConfig(Design{Name: "32-bit float", Scheme: compress.SchemeNone}, 2)
	base.Regions = 2

	sharded := base
	sharded.Shards = 2
	if _, err := Run(sharded); err == nil {
		t.Error("Regions with Shards > 1 accepted")
	}

	elastic := base
	elastic.Dropouts = []Dropout{{Worker: 1, From: 1, To: 2}}
	if _, err := Run(elastic); err == nil {
		t.Error("Regions with Dropouts accepted")
	}

	tooMany := base
	tooMany.Regions = 8 // more regions than the 4 workers
	if _, err := Run(tooMany); err == nil {
		t.Error("Regions > Workers accepted")
	}
}
