// Straggler: the barrier-relaxation background of §2.1. Under per-worker
// compute-time jitter, plain BSP pays the slowest worker every step;
// backup workers (TensorFlow SyncReplicasOptimizer semantics) advance the
// step once Workers-Backup pushes arrive. This example measures the
// interaction between straggler mitigation and 3LC traffic compression.
//
//	go run ./examples/straggler
package main

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/train"
)

func main() {
	const workers = 10
	const steps = 120
	const jitter = 0.6 // heavy-tailed compute time variation

	run := func(d train.Design, backup int) *train.Result {
		// 3lc-train's configuration (-backup, -jitter): the MLP, the tuned SGD schedule.
		res, err := train.Run(train.CLIConfig(train.CLIOptions{Design: d, Workers: workers, Steps: steps,
			Batch: 32, Bandwidth: netsim.Mbps10, Backup: backup, Jitter: jitter, Seed: 1}))
		if err != nil {
			panic(err)
		}
		return res
	}

	base := train.Design{Name: "32-bit float", Scheme: compress.SchemeNone}
	lc := train.Design{Name: "3LC (s=1.00)", Scheme: compress.SchemeThreeLC,
		Opts: compress.Options{Sparsity: 1.0, ZeroRun: true}}

	fmt.Printf("%-16s %8s %12s %12s %12s\n", "design", "backup", "accuracy", "time@10Mbps", "push MiB")
	for _, d := range []train.Design{base, lc} {
		for _, backup := range []int{0, 1, 2} {
			r := run(d, backup)
			fmt.Printf("%-16s %8d %11.2f%% %10.1f s %12.2f\n",
				d.Name, backup, r.FinalAccuracy*100, r.TimeAt(netsim.Mbps10),
				float64(r.TotalPushBytes)/(1<<20))
		}
	}
	fmt.Println("\nBackup workers shave straggler latency (compute-bound regimes) while")
	fmt.Println("3LC removes transmission latency (bandwidth-bound regimes); they compose.")
}
