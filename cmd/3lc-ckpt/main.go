// Command 3lc-ckpt inspects and evaluates checkpoints.
//
// Model checkpoints (v1, written by 3lc-train -save):
//
//	3lc-ckpt -info model.ckpt            # list tensors and statistics
//	3lc-ckpt -eval model.ckpt            # test accuracy on synthetic data
//
// Full-state checkpoints (v2, written by 3lc-train -state):
//
//	3lc-ckpt -state train.ckpt           # sections + configuration fingerprint
//
// A full-state checkpoint is resumed by the command that writes them:
// 3lc-train -resume, under the flags of the run it was cut from.
package main

import (
	"flag"
	"fmt"
	"os"

	"threelc/internal/checkpoint"
	"threelc/internal/data"
	"threelc/internal/nn"
	"threelc/internal/stats"
	"threelc/internal/train"
)

func main() {
	var (
		info      = flag.String("info", "", "model checkpoint to describe")
		eval      = flag.String("eval", "", "model checkpoint to evaluate on the synthetic test set")
		statePath = flag.String("state", "", "full-state checkpoint to describe")
		useResNet = flag.Bool("resnet", false, "checkpoint holds a MicroResNet (default: MLP workload)")
		seed      = flag.Uint64("seed", 1, "model seed (must match the training run)")
	)
	flag.Parse()

	switch {
	case *statePath != "":
		describeState(*statePath)
	case *info != "" || *eval != "":
		modelCheckpoint(*info, *eval, *useResNet, *seed)
	default:
		fmt.Fprintln(os.Stderr, "3lc-ckpt: pass -info/-eval (model checkpoint) or -state (full-state checkpoint)")
		os.Exit(2)
	}
}

// describeState prints a full-state checkpoint's fingerprint and sections.
func describeState(path string) {
	st, err := checkpoint.LoadStateFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "3lc-ckpt:", err)
		os.Exit(1)
	}
	fmt.Printf("full-state checkpoint: %s (%d sections, all CRCs verified)\n", path, len(st.Sections()))
	if info, err := train.ReadStateInfo(st); err == nil {
		fmt.Printf("captured at step:   %d of %d\n", info.Step, info.Steps)
		fmt.Printf("design scheme:      %s\n", info.Scheme)
		fmt.Printf("workers:            %d (batch %d)\n", info.Workers, info.BatchPerWorker)
		fmt.Printf("seed:               %d\n", info.Seed)
	} else {
		fmt.Printf("meta:               %v\n", err)
	}
	fmt.Printf("%-24s %12s\n", "section", "bytes")
	for _, sec := range st.Sections() {
		fmt.Printf("%-24s %12d\n", sec.Name, len(sec.Payload))
	}
}

// modelCheckpoint handles the v1 -info / -eval modes.
func modelCheckpoint(info, eval string, useResNet bool, seed uint64) {
	path := info
	if path == "" {
		path = eval
	}
	dcfg := data.DefaultConfig()
	var m *nn.Model
	if useResNet {
		cfg := nn.DefaultMicroResNet()
		cfg.Seed = seed
		m = nn.NewMicroResNet(cfg)
	} else {
		m = nn.NewMLP(dcfg.C*dcfg.H*dcfg.W, []int{48}, dcfg.Classes, seed)
	}
	if err := checkpoint.LoadFile(path, m); err != nil {
		fmt.Fprintln(os.Stderr, "3lc-ckpt:", err)
		os.Exit(1)
	}

	if info != "" {
		fmt.Printf("checkpoint: %s (%d parameters in %d tensors)\n", path, m.NumParams(), len(m.Params()))
		fmt.Printf("%-24s %10s %10s %10s %10s\n", "tensor", "elems", "std", "max|w|", "mean|w|")
		for _, p := range m.Params() {
			s := stats.Summarize(p.W)
			fmt.Printf("%-24s %10d %10.3g %10.3g %10.3g\n", p.Name, p.W.Len(), s.Std, s.MaxAbs, s.MeanAbs)
		}
	}
	if eval != "" {
		_, testSet := data.Synthetic(dcfg)
		acc := train.Evaluate(m, testSet, !useResNet)
		fmt.Printf("test accuracy: %.2f%% (%d examples)\n", acc*100, testSet.Len())
	}
}
