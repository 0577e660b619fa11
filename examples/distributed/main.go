// Distributed: train the same model on a simulated 10-worker parameter-
// server cluster twice — once uncompressed and once with 3LC — and compare
// accuracy, traffic, and virtual training time at 10 Mbps.
//
//	go run ./examples/distributed
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

	runDesign := func(d train.Design) *train.Result {
		// 3lc-train's configuration: the MLP, the tuned SGD schedule.
		res, err := train.Run(train.CLIConfig(train.CLIOptions{Design: d, Workers: workers, Steps: steps,
			Batch: 32, EvalEvery: 50, Seed: 1}))
		if err != nil {
			panic(err)
		}
		return res
	}

	base := runDesign(train.Design{Name: "32-bit float", Scheme: compress.SchemeNone})
	lc := runDesign(train.Design{
		Name:   "3LC (s=1.00)",
		Scheme: compress.SchemeThreeLC,
		Opts:   compress.Options{Sparsity: 1.0, ZeroRun: true},
	})

	fmt.Printf("%-16s %12s %14s %14s %12s\n", "design", "accuracy", "push traffic", "pull traffic", "time@10Mbps")
	for _, r := range []*train.Result{base, lc} {
		fmt.Printf("%-16s %11.2f%% %11.2f MiB %11.2f MiB %10.1f s\n",
			r.Design.Name, r.FinalAccuracy*100,
			float64(r.TotalPushBytes)/(1<<20), float64(r.TotalPullBytes)/(1<<20),
			r.TimeAt(netsim.Mbps10))
	}
	fmt.Printf("\n3LC: %.1fx traffic compression, %.1fx faster training, %+.2f%% accuracy\n",
		lc.CompressionRatio(),
		base.TimeAt(netsim.Mbps10)/lc.TimeAt(netsim.Mbps10),
		(lc.FinalAccuracy-base.FinalAccuracy)*100)
}
