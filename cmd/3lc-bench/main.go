// Command 3lc-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated substrate.
//
//	3lc-bench -exp table1          # Table 1: speedups + accuracy
//	3lc-bench -exp table2          # Table 2: compression ratios
//	3lc-bench -exp fig4            # Figure 4: time/accuracy @ 10 Mbps
//	3lc-bench -exp fig7            # Figure 7: loss/accuracy series
//	3lc-bench -exp fig9            # Figure 9: bits per state change series
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

	"threelc/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1 | table2 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | arch | gradstats | all")
		steps   = flag.Int("steps", 0, "override standard training steps (default from suite)")
		workers = flag.Int("workers", 0, "override worker count")
		resnet  = flag.Bool("resnet", false, "use the MicroResNet workload instead of the MLP")
		quiet   = flag.Bool("quiet", false, "suppress per-run progress lines")
		every   = flag.Int("series-every", 10, "subsampling interval for printed series")
		csvDir  = flag.String("csv", "", "also write results as CSV files into this directory")
	)
	flag.Parse()

	writeCSV := func(name string, emit func(w io.Writer) error) error {
		if *csvDir == "" || emit == nil {
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
		var csv func(w io.Writer) error // nil: the experiment has no CSV form
		switch name {
		case "table1":
			rows, err := experiments.Table1(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			csv = func(w io.Writer) error { return experiments.WriteTable1CSV(w, rows) }
		case "table2":
			rows, err := experiments.Table2(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
			csv = func(w io.Writer) error { return experiments.WriteTable2CSV(w, rows) }
		case "arch":
			rows := experiments.ArchitectureContrast(16)
			experiments.PrintArchitectureContrast(os.Stdout, rows)
		case "gradstats":
			rows, err := experiments.GradientStatistics(suite, 1.0, 25)
			if err != nil {
				return err
			}
			experiments.PrintGradStats(os.Stdout, rows, 1.0)
		case "fig4", "fig5", "fig6", "fig8":
			fig := map[string]struct {
				curves func(*experiments.Suite) ([]experiments.Curve, error)
				title  string
			}{
				"fig4": {experiments.Figure4, "Figure 4: Training time and test accuracy using 25/50/75/100% of standard training steps @ 10 Mbps"},
				"fig5": {experiments.Figure5, "Figure 5: Training time and test accuracy using 25/50/75/100% of standard training steps @ 100 Mbps"},
				"fig6": {experiments.Figure6, "Figure 6: Training time and test accuracy using 25/50/75/100% of standard training steps @ 1 Gbps"},
				"fig8": {experiments.Figure8, "Figure 8: Training time and test accuracy with a varied sparsity multiplier (s) @ 10 Mbps"},
			}[name]
			curves, err := fig.curves(suite)
			if err != nil {
				return err
			}
			experiments.PrintCurves(os.Stdout, fig.title, curves)
			csv = func(w io.Writer) error { return experiments.WriteCurvesCSV(w, curves) }
		case "fig7":
			series, err := experiments.Figure7(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(os.Stdout, series, *every)
			csv = func(w io.Writer) error { return experiments.WriteSeriesCSV(w, series) }
		case "fig9":
			series, err := experiments.Figure9(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure9(os.Stdout, series, *every)
			csv = func(w io.Writer) error { return experiments.WriteBitsCSV(w, series) }
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return writeCSV(name+".csv", csv)
	}

	var names []string
	if *exp == "all" {
		names = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
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
