// Sweep: sensitivity of 3LC to the sparsity multiplier s — the paper's
// Figure 8 / Table 2 analysis in miniature. For each s, trains to
// completion and reports compression ratio, bits per state change,
// accuracy, and time at 10 Mbps.
//
//	go run ./examples/sweep
package main

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/train"
)

func main() {
	const workers = 10
	const steps = 150

	fmt.Printf("%-10s %10s %14s %12s %12s\n", "s", "ratio", "bits/change", "accuracy", "time@10Mbps")
	for _, cfgRow := range []struct {
		label string
		s     float64
		zre   bool
	}{
		{"No ZRE", 1.00, false},
		{"1.00", 1.00, true},
		{"1.25", 1.25, true},
		{"1.50", 1.50, true},
		{"1.75", 1.75, true},
		{"1.90", 1.90, true},
	} {
		design := train.Design{
			Name:   fmt.Sprintf("3LC (s=%.2f)", cfgRow.s),
			Scheme: compress.SchemeThreeLC,
			Opts:   compress.Options{Sparsity: cfgRow.s, ZeroRun: cfgRow.zre},
		}
		// 3lc-train's configuration: the MLP, the tuned SGD schedule.
		res, err := train.Run(train.CLIConfig(train.CLIOptions{Design: design, Workers: workers, Steps: steps,
			Batch: 32, Seed: 1}))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %9.1fx %14.3f %11.2f%% %10.1f s\n",
			cfgRow.label, res.CompressionRatio(), res.BitsPerChange(),
			res.FinalAccuracy*100, res.TimeAt(netsim.Mbps10))
	}
}
