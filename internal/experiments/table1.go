package experiments

import (
	"fmt"
	"io"

	"threelc/internal/train"
)

// Table1Row is one design's row of Table 1: speedup over the 32-bit float
// baseline at each bandwidth, plus test accuracy and its difference from
// the baseline, all at standard training steps.
type Table1Row struct {
	Design   string
	Speedup  map[string]float64 // bandwidth name -> speedup
	Accuracy float64
	Diff     float64
}

// Table1 regenerates Table 1.
func Table1(s *Suite) ([]Table1Row, error) {
	steps := s.Opt.StandardSteps
	base, err := s.Run(DesignFloat32, steps)
	if err != nil {
		return nil, err
	}
	baseTime := make(map[string]float64)
	for _, bw := range Bandwidths {
		baseTime[BandwidthName(bw)] = base.TimeAt(bw)
	}

	var rows []Table1Row
	for _, d := range Table1Designs() {
		r, err := s.Run(d, steps)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Design:   d.Name,
			Speedup:  make(map[string]float64),
			Accuracy: r.FinalAccuracy * 100,
			Diff:     (r.FinalAccuracy - base.FinalAccuracy) * 100,
		}
		for _, bw := range Bandwidths {
			name := BandwidthName(bw)
			row.Speedup[name] = baseTime[name] / r.TimeAt(bw)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable1 renders the rows in the paper's layout.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Speedup over the baseline and test accuracy using standard training steps")
	fmt.Fprintf(w, "%-24s %10s %10s %10s %12s %10s\n",
		"Design", "@10 Mbps", "@100 Mbps", "@1 Gbps", "Accuracy(%)", "Diff")
	for _, r := range rows {
		diff := fmt.Sprintf("%+.2f", r.Diff)
		if r.Design == "32-bit float" {
			diff = ""
		}
		fmt.Fprintf(w, "%-24s %10.2f %10.2f %10.2f %12.2f %10s\n",
			r.Design,
			r.Speedup["10 Mbps"], r.Speedup["100 Mbps"], r.Speedup["1 Gbps"],
			r.Accuracy, diff)
	}
}

// Table2Row is one sparsity setting's row of Table 2.
type Table2Row struct {
	Label            string
	CompressionRatio float64
	// PaperRatio is the ratio the same run reaches in §3.3's capped
	// zero-run spelling (train.Result.PaperCompressionRatio).
	PaperRatio    float64
	BitsPerChange float64
}

// Table2 regenerates Table 2: average traffic compression of 3LC across a
// standard training run, with and without zero-run encoding.
func Table2(s *Suite) ([]Table2Row, error) {
	steps := s.Opt.StandardSteps
	configs := []struct {
		label  string
		design train.Design
	}{
		{"No ZRE", ThreeLCNoZRE(1.00)},
		{"1.00", ThreeLC(1.00)},
		{"1.50", ThreeLC(1.50)},
		{"1.75", ThreeLC(1.75)},
		{"1.90", ThreeLC(1.90)},
	}
	var rows []Table2Row
	for _, c := range configs {
		r, err := s.Run(c.design, steps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Label:            c.label,
			CompressionRatio: r.CompressionRatio(),
			PaperRatio:       r.PaperCompressionRatio(),
			BitsPerChange:    r.BitsPerChange(),
		})
	}
	return rows, nil
}

// PrintTable2 renders the rows in the paper's layout.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Average traffic compression of 3LC using standard training steps")
	fmt.Fprintf(w, "%-8s %22s %22s %22s\n", "s", "Compression ratio (x)", "paper's zero runs (x)", "bits per state change")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %22.1f %22.1f %22.3f\n", r.Label, r.CompressionRatio, r.PaperRatio, r.BitsPerChange)
	}
}
