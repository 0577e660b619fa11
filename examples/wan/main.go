// WAN: the paper's motivating scenario — geo-distributed training over a
// constrained wide-area link (regulatory data pinning, metered mobile
// links, §1). Trains with each traffic-reduction design and estimates
// wall-clock training time across a range of WAN bandwidths.
//
//	go run ./examples/wan
package main

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/train"
)

func main() {
	const workers = 10
	const steps = 100

	// Every run is 3lc-train's configuration: the MLP, the tuned SGD schedule.
	job := func(d train.Design) train.Config {
		return train.CLIConfig(train.CLIOptions{Design: d, Workers: workers, Steps: steps,
			Batch: 32, Seed: 1})
	}

	designs := []train.Design{
		{Name: "32-bit float", Scheme: compress.SchemeNone},
		{Name: "8-bit int", Scheme: compress.SchemeInt8},
		{Name: "5% sparsification", Scheme: compress.SchemeTopK, Opts: compress.Options{Fraction: 0.05}},
		{Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.0, ZeroRun: true}},
		{Name: "3LC (s=1.90)", Scheme: compress.SchemeThreeLC, Opts: compress.Options{Sparsity: 1.9, ZeroRun: true}},
	}
	// WAN-grade bandwidths: a metered mobile uplink, a modest WAN, a
	// fast WAN.
	bandwidths := []float64{2e6, 10e6, 50e6}

	fmt.Printf("%-20s %10s", "design", "accuracy")
	for _, bw := range bandwidths {
		fmt.Printf(" %11s", fmt.Sprintf("@%.0f Mbps", bw/1e6))
	}
	fmt.Println()

	for _, d := range designs {
		res, err := train.Run(job(d))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-20s %9.2f%%", d.Name, res.FinalAccuracy*100)
		for _, bw := range bandwidths {
			fmt.Printf(" %9.1f s", res.TimeAt(bw))
		}
		fmt.Println()
	}
	fmt.Println("\nTimes are virtual training times for the full run; lower is better.")
	fmt.Println("Bytes on the wire are measured from the actual compressed pushes/pulls.")
}
