// Command 3lc-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated substrate.
//
//	3lc-bench -exp table1          # Table 1: speedups + accuracy
//	3lc-bench -exp table2          # Table 2: compression ratios
//	3lc-bench -exp fig4            # Figure 4: time/accuracy @ 10 Mbps
//	3lc-bench -exp fig7            # Figure 7: loss/accuracy series
//	3lc-bench -exp fig9            # Figure 9: bits per state change series
//	3lc-bench -exp shard           # sharded-PS scaling: shard count x codec
//	3lc-bench -exp wan             # hierarchical aggregation over slow inter-region links
//	3lc-bench -exp all             # everything
//
// Runs are cached within a single invocation, so "-exp all" reuses the
// 100%-budget runs across Table 1 and Figures 4-9.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"threelc/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1 | table2 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | arch | gradstats | shard | wan | all")
		steps    = flag.Int("steps", 0, "override standard training steps (default from suite)")
		workers  = flag.Int("workers", 0, "override worker count")
		shards   = flag.String("shards", "1,2,4", "comma-separated shard counts for -exp shard")
		resnet   = flag.Bool("resnet", false, "use the MicroResNet workload instead of the MLP")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		every    = flag.Int("series-every", 10, "subsampling interval for printed series")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		regions  = flag.Int("regions", 2, "region count for -exp wan")
		wanMbps  = flag.Float64("wan-mbps", 100, "inter-region link bandwidth in Mbps for -exp wan")
		wanLatMs = flag.Float64("wan-latency-ms", 20, "one-way inter-region latency in ms for -exp wan")
	)
	flag.Parse()

	writeCSV := func(name string, emit func(w *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		fp, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer fp.Close()
		return emit(fp)
	}

	opt := experiments.DefaultOptions()
	if *steps > 0 {
		opt.StandardSteps = *steps
	}
	if *workers > 0 {
		opt.Workers = *workers
	}
	opt.UseResNet = *resnet
	if !*quiet {
		opt.Progress = os.Stderr
	}
	suite := experiments.NewSuite(opt)

	run := func(name string) error {
		switch name {
		case "table1":
			rows, err := experiments.Table1(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			if err := writeCSV("table1.csv", func(w *os.File) error {
				return experiments.WriteTable1CSV(w, rows)
			}); err != nil {
				return err
			}
		case "table2":
			rows, err := experiments.Table2(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
			if err := writeCSV("table2.csv", func(w *os.File) error {
				return experiments.WriteTable2CSV(w, rows)
			}); err != nil {
				return err
			}
		case "arch":
			rows := experiments.ArchitectureContrast(16)
			experiments.PrintArchitectureContrast(os.Stdout, rows)
		case "shard":
			counts, err := parseShardCounts(*shards)
			if err != nil {
				return err
			}
			var progress io.Writer
			if !*quiet {
				progress = os.Stderr
			}
			w := 2
			if *workers > 0 {
				w = *workers
			}
			st := 6
			if *steps > 0 {
				st = *steps
			}
			rows, err := experiments.ShardScaling(experiments.ShardScalingDesigns(), counts, w, st, progress)
			if err != nil {
				return err
			}
			experiments.PrintShardScaling(os.Stdout, rows)
			if err := writeCSV("shard.csv", func(w *os.File) error {
				return experiments.WriteShardScalingCSV(w, rows)
			}); err != nil {
				return err
			}
		case "wan":
			var progress io.Writer
			if !*quiet {
				progress = os.Stderr
			}
			w, st := 4, 12
			if *workers > 0 {
				w = *workers
			}
			if *steps > 0 {
				st = *steps
			}
			bw, lat := *wanMbps*1e6, *wanLatMs*1e-3
			rows, err := experiments.WANSweep(experiments.WANDesigns(), experiments.WANTopologies(*regions), w, st, bw, lat, progress)
			if err != nil {
				return err
			}
			experiments.PrintWANSweep(os.Stdout, rows, bw, lat)
			if err := writeCSV("wan.csv", func(w *os.File) error {
				return experiments.WriteWANSweepCSV(w, rows)
			}); err != nil {
				return err
			}
		case "gradstats":
			rows, err := experiments.GradientStatistics(suite, 1.0, 25)
			if err != nil {
				return err
			}
			experiments.PrintGradStats(os.Stdout, rows, 1.0)
		case "fig4", "fig5", "fig6":
			var curves []experiments.Curve
			var err error
			var title string
			switch name {
			case "fig4":
				curves, err = experiments.Figure4(suite)
				title = "Figure 4: Training time and test accuracy using 25/50/75/100% of standard training steps @ 10 Mbps"
			case "fig5":
				curves, err = experiments.Figure5(suite)
				title = "Figure 5: Training time and test accuracy using 25/50/75/100% of standard training steps @ 100 Mbps"
			case "fig6":
				curves, err = experiments.Figure6(suite)
				title = "Figure 6: Training time and test accuracy using 25/50/75/100% of standard training steps @ 1 Gbps"
			}
			if err != nil {
				return err
			}
			experiments.PrintCurves(os.Stdout, title, curves)
			if err := writeCSV(name+".csv", func(w *os.File) error {
				return experiments.WriteCurvesCSV(w, curves)
			}); err != nil {
				return err
			}
		case "fig7":
			series, err := experiments.Figure7(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(os.Stdout, series, *every)
			if err := writeCSV("fig7.csv", func(w *os.File) error {
				return experiments.WriteSeriesCSV(w, series)
			}); err != nil {
				return err
			}
		case "fig8":
			curves, err := experiments.Figure8(suite)
			if err != nil {
				return err
			}
			experiments.PrintCurves(os.Stdout,
				"Figure 8: Training time and test accuracy with a varied sparsity multiplier (s) @ 10 Mbps", curves)
			if err := writeCSV("fig8.csv", func(w *os.File) error {
				return experiments.WriteCurvesCSV(w, curves)
			}); err != nil {
				return err
			}
		case "fig9":
			series, err := experiments.Figure9(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure9(os.Stdout, series, *every)
			if err := writeCSV("fig9.csv", func(w *os.File) error {
				return experiments.WriteBitsCSV(w, series)
			}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	var names []string
	if *exp == "all" {
		names = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "shard", "wan"}
	} else {
		names = []string{*exp}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, "3lc-bench:", err)
			os.Exit(1)
		}
	}
}

// parseShardCounts parses the -shards flag ("1,2,4") into shard counts.
func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, e.g. -shards 1,2,4)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards lists no counts")
	}
	return out, nil
}
