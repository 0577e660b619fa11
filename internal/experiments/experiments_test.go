package experiments

import (
	"bytes"
	"strings"
	"testing"

	"threelc/internal/data"
	"threelc/internal/train"
)

// tinySuite keeps experiment tests fast: small data, few steps, 3 workers.
func tinySuite() *Suite {
	opt := DefaultOptions()
	opt.Workers = 3
	opt.BatchPerWorker = 8
	opt.StandardSteps = 12
	opt.EvalEvery = 6
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 150, 60
	opt.Data = dcfg
	opt.Hidden = []int{12}
	return NewSuite(opt)
}

func TestDesignCatalog(t *testing.T) {
	rows := Table1Designs()
	if len(rows) != 11 {
		t.Fatalf("Table 1 has %d designs, want 11", len(rows))
	}
	if rows[0].Name != "32-bit float" {
		t.Errorf("first row %q", rows[0].Name)
	}
	if rows[10].Name != "3LC (s=1.90)" {
		t.Errorf("last row %q", rows[10].Name)
	}
	if len(OverviewDesigns()) != 9 {
		t.Errorf("overview set has %d designs, want 9", len(OverviewDesigns()))
	}
	if len(Figure7Designs()) != 5 {
		t.Errorf("figure 7 set has %d designs, want 5", len(Figure7Designs()))
	}
}

func TestThreeLCNames(t *testing.T) {
	if ThreeLC(1.75).Name != "3LC (s=1.75)" {
		t.Errorf("name %q", ThreeLC(1.75).Name)
	}
	if !strings.Contains(ThreeLCNoZRE(1.0).Name, "no ZRE") {
		t.Errorf("name %q", ThreeLCNoZRE(1.0).Name)
	}
	if ThreeLCNoZRE(1.0).Opts.ZeroRun {
		t.Error("no-ZRE design must disable zero-run encoding")
	}
}

func TestSuiteCaching(t *testing.T) {
	s := tinySuite()
	r1, err := s.Run(DesignFloat32, 6)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(DesignFloat32, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical requests must return the cached result")
	}
}

// TestOffTableSparsitiesRunSeparately runs two sparsities no Table 1 row
// names through one suite, which caches runs by design name: each must get
// a name of its own and a run of its own, not the other's cached run.
func TestOffTableSparsitiesRunSeparately(t *testing.T) {
	s := tinySuite()
	a, b := ThreeLC(1.40), ThreeLC(1.25)
	if a.Name == b.Name {
		t.Fatalf("s=1.40 and s=1.25 share the name %q", a.Name)
	}
	ra, err := s.Run(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Run(b, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb || rb.Design.Opts.Sparsity != 1.25 {
		t.Fatalf("s=1.25 returned the run of s=%v", rb.Design.Opts.Sparsity)
	}
}

func TestTable1Shape(t *testing.T) {
	s := tinySuite()
	rows, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows", len(rows))
	}
	base := rows[0]
	for _, bw := range []string{"10 Mbps", "100 Mbps", "1 Gbps"} {
		if v, ok := base.Speedup[bw]; !ok || v < 0.99 || v > 1.01 {
			t.Errorf("baseline speedup at %s = %v, want 1.0", bw, v)
		}
	}
	// 3LC must beat the baseline at 10 Mbps.
	for _, r := range rows {
		if strings.HasPrefix(r.Design, "3LC") && r.Speedup["10 Mbps"] < 1.5 {
			t.Errorf("%s speedup at 10 Mbps = %v, want > 1.5", r.Design, r.Speedup["10 Mbps"])
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "3LC (s=1.75)") {
		t.Error("printed table missing 3LC row")
	}
}

func TestTable2Shape(t *testing.T) {
	s := tinySuite()
	rows, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// "No ZRE" is exactly 20x / 1.6 bits (fixed-length quartic encoding).
	if rows[0].CompressionRatio < 19 || rows[0].CompressionRatio > 20.1 {
		t.Errorf("No ZRE ratio %v, want ~20", rows[0].CompressionRatio)
	}
	if rows[0].BitsPerChange < 1.59 || rows[0].BitsPerChange > 1.7 {
		t.Errorf("No ZRE bits %v, want ~1.6", rows[0].BitsPerChange)
	}
	// Without zero runs there is nothing to respell: the paper's column
	// is ours, exactly.
	if rows[0].PaperRatio != rows[0].CompressionRatio {
		t.Errorf("No ZRE ratio %v in the paper's spelling, %v in ours", rows[0].PaperRatio, rows[0].CompressionRatio)
	}
	// ZRE rows must beat No ZRE, in the paper's spelling too, and ours is
	// at most a bare long-run token per run of 14..27 behind the paper's
	// (a few per cent where runs are short; far ahead where they are long).
	for _, r := range rows[1:] {
		if r.CompressionRatio <= rows[0].CompressionRatio || r.PaperRatio <= rows[0].PaperRatio {
			t.Errorf("s=%s ratio %v (paper's spelling %v) does not beat No ZRE", r.Label, r.CompressionRatio, r.PaperRatio)
		}
		if r.CompressionRatio < 0.93*r.PaperRatio {
			t.Errorf("s=%s ratio %v trails the paper's spelling (%v) by more than lone tokens explain", r.Label, r.CompressionRatio, r.PaperRatio)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "bits per state change") || !strings.Contains(buf.String(), "paper's zero runs") {
		t.Error("printed table missing header")
	}
}

func TestCurvesShape(t *testing.T) {
	s := tinySuite()
	curves, err := TimeAccuracyCurves(s, []train.Design{DesignFloat32, ThreeLC(1.00)}, Bandwidths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 4 {
			t.Fatalf("%s has %d points, want 4", c.Design, len(c.Points))
		}
		// Time grows with budget.
		for i := 1; i < 4; i++ {
			if c.Points[i].TimeMinutes <= c.Points[i-1].TimeMinutes {
				t.Errorf("%s: time not increasing with budget", c.Design)
			}
		}
	}
	var buf bytes.Buffer
	PrintCurves(&buf, "test", curves)
	if !strings.Contains(buf.String(), "100%") {
		t.Error("printed curves missing budget column")
	}
}

func TestFigure7Series(t *testing.T) {
	s := tinySuite()
	series, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series", len(series))
	}
	for _, ts := range series {
		if len(ts.Steps) != s.Opt.StandardSteps {
			t.Errorf("%s has %d loss points", ts.Design, len(ts.Steps))
		}
		if len(ts.Evals) == 0 {
			t.Errorf("%s has no accuracy evals", ts.Design)
		}
	}
	var buf bytes.Buffer
	PrintFigure7(&buf, series, 4)
	if !strings.Contains(buf.String(), "accuracy") {
		t.Error("printed figure missing accuracy series")
	}
}

func TestFigure9Series(t *testing.T) {
	s := tinySuite()
	series, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, bs := range series {
		if bs.NoZREBits != 1.6 {
			t.Errorf("No-ZRE reference %v, want 1.6", bs.NoZREBits)
		}
		for i, b := range bs.PushBits {
			if b <= 0 || b > 1.7 {
				t.Errorf("s=%v push bits[%d] = %v outside (0, 1.7]", bs.Sparsity, i, b)
			}
		}
	}
	var buf bytes.Buffer
	PrintFigure9(&buf, series, 3)
	if !strings.Contains(buf.String(), "s=1.75") {
		t.Error("printed figure missing s=1.75 series")
	}
}

func TestFigure8UsesOnly3LC(t *testing.T) {
	s := tinySuite()
	curves, err := Figure8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if !strings.HasPrefix(c.Design, "3LC") {
			t.Errorf("unexpected design %q in Figure 8", c.Design)
		}
	}
}

func TestBandwidthName(t *testing.T) {
	if BandwidthName(Bandwidths[0]) != "10 Mbps" {
		t.Error("bandwidth naming broken")
	}
	if BandwidthName(12345) == "" {
		t.Error("fallback naming broken")
	}
}

func TestBudgetSteps(t *testing.T) {
	s := tinySuite()
	if s.budgetSteps(0.25) != 3 {
		t.Errorf("25%% of 12 = %d, want 3", s.budgetSteps(0.25))
	}
	if s.budgetSteps(0.001) != 1 {
		t.Error("budget must be at least 1 step")
	}
}
