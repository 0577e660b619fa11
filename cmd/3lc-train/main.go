// Command 3lc-train runs a single distributed training job with a chosen
// traffic-compression design and reports accuracy, traffic, and virtual
// training time at the given bandwidth.
//
// Example:
//
//	3lc-train -design 3lc -sparsity 1.75 -workers 10 -steps 300 -bandwidth 10e6
//
// With -state it writes full-state checkpoints; -resume continues from one
// under the flags that wrote it, bit-identically to the uninterrupted run,
// and keeps writing checkpoints if -state is given again:
//
//	3lc-train -workers 4 -steps 100 -state run.ckpt -state-every 40
//	3lc-train -workers 4 -steps 100 -state run.ckpt -state-every 40 -resume run.ckpt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"threelc/internal/checkpoint"
	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/train"
)

func main() {
	var (
		designName = flag.String("design", "3lc", "design: float32 | int8 | stoch3 | mqe1bit | sparse25 | sparse5 | local2 | 3lc")
		sparsity   = flag.Float64("sparsity", 1.0, "3LC sparsity multiplier s in [1,2)")
		noZRE      = flag.Bool("no-zre", false, "disable zero-run encoding (3LC only)")
		workers    = flag.Int("workers", 10, "number of workers")
		steps      = flag.Int("steps", 300, "training steps")
		batch      = flag.Int("batch", 32, "per-worker batch size")
		bandwidth  = flag.Float64("bandwidth", netsim.Mbps10, "link bandwidth (bits/sec) that TimeAt prices the run's virtual time at")
		useResNet  = flag.Bool("resnet", false, "train MicroResNet instead of the MLP workload")
		seed       = flag.Uint64("seed", 1, "random seed")
		evalEvery  = flag.Int("eval-every", 50, "evaluate test accuracy every N steps")
		savePath   = flag.String("save", "", "write the trained global model to this checkpoint file")
		statePath  = flag.String("state", "", "write periodic full-state checkpoints (model+optimizer+codec state) to this file")
		stateEvery = flag.Int("state-every", 50, "full-state checkpoint interval in steps (with -state)")
		resumeFrom = flag.String("resume", "", "resume from a full-state checkpoint written by an identical configuration (see 3lc-ckpt -state)")
	)
	flag.Parse()
	if !(*bandwidth > 0 && *bandwidth < math.Inf(1)) { // NaN and +Inf too: neither prices a link
		fmt.Fprintf(os.Stderr, "3lc-train: -bandwidth must be a positive, finite rate in bits/sec, got %v\n", *bandwidth)
		os.Exit(2)
	}

	design, err := train.ParseDesign(*designName, *sparsity, *noZRE)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3lc-train:", err)
		os.Exit(2)
	}

	cfg := train.CLIConfig(train.CLIOptions{
		Design:    design,
		Workers:   *workers,
		Steps:     *steps,
		Batch:     *batch,
		EvalEvery: *evalEvery,
		ResNet:    *useResNet,
		Seed:      *seed,
	})
	cfg.CheckpointPath = *statePath
	cfg.CheckpointEvery = *stateEvery
	cfg.ResumeFrom = *resumeFrom
	if *statePath == "" {
		cfg.CheckpointEvery = 0
	}

	var trained *nn.Model
	if *savePath != "" {
		// Capture the global model for checkpointing: BuildModel is
		// called once for the server first.
		orig := cfg.BuildModel
		first := true
		cfg.BuildModel = func() *nn.Model {
			m := orig()
			if first {
				trained = m
				first = false
			}
			return m
		}
	}

	res, err := train.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3lc-train:", err)
		os.Exit(1)
	}
	if *resumeFrom != "" {
		fmt.Printf("resumed from %s (continuing to step %d)\n", *resumeFrom, *steps)
	}
	if *savePath != "" {
		if err := checkpoint.SaveFile(*savePath, trained); err != nil {
			fmt.Fprintln(os.Stderr, "3lc-train: save:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint saved to %s\n", *savePath)
	}

	fmt.Printf("design:             %s\n", res.Design.Name)
	fmt.Printf("model parameters:   %d (%d compressible)\n", res.NumParam, res.CompressibleElems)
	fmt.Printf("workers x steps:    %d x %d\n", res.Workers, res.Steps)
	fmt.Printf("final loss:         %.4f\n", res.FinalLoss)
	fmt.Printf("final accuracy:     %.2f%%\n", res.FinalAccuracy*100)
	fmt.Printf("virtual time:       %.1f s @ %s\n", res.TimeAt(*bandwidth), bwName(*bandwidth))
	fmt.Printf("push traffic:       %s (raw %s)\n", fmtBytes(res.TotalPushBytes), fmtBytes(res.RawPushBytes))
	fmt.Printf("pull traffic:       %s\n", fmtBytes(res.TotalPullBytes))
	if res.CompressibleElems > 0 && design.Scheme != compress.SchemeNone {
		fmt.Printf("compression ratio:  %.1fx (%.3f bits per state change)\n",
			res.CompressionRatio(), res.BitsPerChange())
	}
	for _, e := range res.Evals {
		fmt.Printf("  step %5d  accuracy %.2f%%\n", e.Step, e.Accuracy*100)
	}
}

func bwName(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.0f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.0f Mbps", bps/1e6)
	}
	return fmt.Sprintf("%.0f bps", bps)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
