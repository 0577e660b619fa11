// CLI design-name resolution and configuration, shared by cmd/3lc-train,
// cmd/3lc-net and the examples so all build identical configurations.
package train

import (
	"fmt"
	"strings"

	"threelc/internal/compress"
	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
)

// ParseDesign resolves a CLI design name (float32 | int8 | stoch3 |
// mqe1bit | sparse25 | sparse5 | local2 | 3lc) to its Design.
func ParseDesign(name string, sparsity float64, noZRE bool) (Design, error) {
	switch strings.ToLower(name) {
	case "float32", "none", "baseline":
		return Design{Name: "32-bit float", Scheme: compress.SchemeNone}, nil
	case "int8":
		return Design{Name: "8-bit int", Scheme: compress.SchemeInt8}, nil
	case "stoch3":
		return Design{Name: "Stoch 3-value + QE", Scheme: compress.SchemeStoch3QE}, nil
	case "mqe1bit":
		return Design{Name: "MQE 1-bit int", Scheme: compress.SchemeMQE1Bit}, nil
	case "sparse25":
		return Design{Name: "25% sparsification", Scheme: compress.SchemeTopK,
			Opts: compress.Options{Fraction: 0.25}}, nil
	case "sparse5":
		return Design{Name: "5% sparsification", Scheme: compress.SchemeTopK,
			Opts: compress.Options{Fraction: 0.05}}, nil
	case "local2":
		return Design{Name: "2 local steps", Scheme: compress.SchemeLocalSteps,
			Opts: compress.Options{Interval: 2}}, nil
	case "3lc":
		label := fmt.Sprintf("3LC (s=%.2f)", sparsity)
		if noZRE {
			label += " no ZRE"
		}
		return Design{Name: label, Scheme: compress.SchemeThreeLC,
			Opts: compress.Options{Sparsity: sparsity, ZeroRun: !noZRE}}, nil
	}
	return Design{}, fmt.Errorf("unknown design %q", name)
}

// CLIOptions are the training flags of cmd/3lc-train, which cmd/3lc-net and
// the examples share. Every one of them builds its Config through CLIConfig,
// so the model architecture and optimizer tuning cannot drift between
// them — and a run resumed with `3lc-train -resume` under the flags that
// wrote its checkpoint is the run that wrote it.
type CLIOptions struct {
	Design    Design
	Workers   int
	Steps     int
	Batch     int
	Bandwidth float64
	EvalEvery int
	ResNet    bool
	Seed      uint64
}

// CLIConfig assembles the standard CLI training configuration: the
// synthetic-data workload (MLP by default, MicroResNet with ResNet), the
// tuned SGD schedule, and the calibrated virtual network.
func CLIConfig(o CLIOptions) Config {
	dcfg := data.DefaultConfig()
	var build func() *nn.Model
	flat := true
	if o.ResNet {
		flat = false
		build = func() *nn.Model {
			cfg := nn.DefaultMicroResNet()
			cfg.Seed = o.Seed
			return nn.NewMicroResNet(cfg)
		}
	} else {
		in := dcfg.C * dcfg.H * dcfg.W
		build = func() *nn.Model { return nn.NewMLP(in, []int{48}, dcfg.Classes, o.Seed) }
	}
	optCfg := opt.TunedSGDConfig(o.Workers, o.Steps)
	cfg := Config{
		Design:         o.Design,
		Workers:        o.Workers,
		BatchPerWorker: o.Batch,
		Steps:          o.Steps,
		Data:           dcfg,
		BuildModel:     build,
		FlatInput:      flat,
		Augment:        o.ResNet,
		Net:            netsim.DefaultParams(o.Bandwidth),
		Optimizer:      &optCfg,
		EvalEvery:      o.EvalEvery,
		Seed:           o.Seed,
	}
	cfg.Net.Workers = o.Workers
	return cfg
}
