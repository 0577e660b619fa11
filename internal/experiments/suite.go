package experiments

import (
	"fmt"
	"io"
	"sync"

	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/train"
)

// Options sizes the experiment suite. The defaults give a laptop-scale run
// that preserves the paper's compute-to-communication regime; StandardSteps
// plays the role of the paper's 25,600-step standard training run.
type Options struct {
	Workers        int
	BatchPerWorker int
	// StandardSteps is the 100% training-step budget.
	StandardSteps int
	// Hidden sizes the MLP workload; see UseResNet for the CNN workload.
	Hidden []int
	// UseResNet switches the workload to MicroResNet (slower, closer to
	// the paper's ResNet-110 architecture).
	UseResNet bool
	// Data configures the synthetic dataset.
	Data data.Config
	// EvalEvery controls the cadence of accuracy measurements (Figure 7).
	EvalEvery int
	Seed      uint64
	// Progress, if non-nil, receives one line per completed training run.
	Progress io.Writer
}

// DefaultOptions returns the standard suite configuration.
func DefaultOptions() Options {
	return Options{
		Workers:        10,
		BatchPerWorker: 32,
		StandardSteps:  300,
		Hidden:         []int{48},
		Data:           data.DefaultConfig(),
		EvalEvery:      25,
		Seed:           1,
	}
}

// Bandwidths under evaluation, in Table 1 column order.
var Bandwidths = []float64{netsim.Mbps10, netsim.Mbps100, netsim.Gbps1}

// BandwidthName formats a bandwidth the way the paper's tables do.
func BandwidthName(bps float64) string {
	switch bps {
	case netsim.Mbps10:
		return "10 Mbps"
	case netsim.Mbps100:
		return "100 Mbps"
	case netsim.Gbps1:
		return "1 Gbps"
	}
	return fmt.Sprintf("%.0f bps", bps)
}

// StepBudgets are the fractional training-step budgets of Figures 4-6 and 8.
var StepBudgets = []float64{0.25, 0.50, 0.75, 1.00}

// Suite runs and caches training runs shared across experiments: Table 1
// and Figures 4-6 reuse the same 100%-budget runs, Figure 8 reuses the
// 3LC runs, and Figures 7 and 9 read the recorded per-step series.
type Suite struct {
	Opt Options

	mu    sync.Mutex
	cache map[string]*train.Result
}

// NewSuite creates a suite with the given options.
func NewSuite(opt Options) *Suite {
	return &Suite{Opt: opt, cache: make(map[string]*train.Result)}
}

func (s *Suite) buildModel() func() *nn.Model {
	opt := s.Opt
	if opt.UseResNet {
		return func() *nn.Model {
			cfg := nn.DefaultMicroResNet()
			cfg.InChannels = opt.Data.C
			cfg.ImageSize = opt.Data.H
			cfg.Classes = opt.Data.Classes
			cfg.Seed = opt.Seed
			return nn.NewMicroResNet(cfg)
		}
	}
	in := opt.Data.C * opt.Data.H * opt.Data.W
	return func() *nn.Model {
		return nn.NewMLP(in, opt.Hidden, opt.Data.Classes, opt.Seed)
	}
}

// config is the suite's training run of design for steps steps.
func (s *Suite) config(design train.Design, steps int) train.Config {
	optCfg := opt.TunedSGDConfig(s.Opt.Workers, steps)
	cfg := train.Config{
		Design:         design,
		Workers:        s.Opt.Workers,
		BatchPerWorker: s.Opt.BatchPerWorker,
		Steps:          steps,
		Data:           s.Opt.Data,
		BuildModel:     s.buildModel(),
		FlatInput:      !s.Opt.UseResNet,
		Augment:        s.Opt.UseResNet, // crop/flip only meaningful on images fed to CNNs
		Net:            netsim.DefaultParams(netsim.Gbps1),
		Optimizer:      &optCfg,
		EvalEvery:      s.Opt.EvalEvery,
		Seed:           s.Opt.Seed,
	}
	cfg.Net.Workers = s.Opt.Workers
	return cfg
}

// Run executes (or returns the cached result of) one training run for the
// design at the given step count. All runs record per-step series so that
// training time can be recomputed at any bandwidth.
func (s *Suite) Run(design train.Design, steps int) (*train.Result, error) {
	key := fmt.Sprintf("%s|%d", design.Name, steps)
	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()

	r, err := train.Run(s.config(design, steps))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s @ %d steps: %w", design.Name, steps, err)
	}
	if s.Opt.Progress != nil {
		fmt.Fprintf(s.Opt.Progress, "ran %-24s steps=%-5d acc=%.4f ratio=%.1fx\n",
			design.Name, steps, r.FinalAccuracy, r.CompressionRatio())
	}
	s.mu.Lock()
	s.cache[key] = r
	s.mu.Unlock()
	return r, nil
}

// budgetSteps converts a fractional budget into a concrete step count.
func (s *Suite) budgetSteps(frac float64) int {
	n := int(float64(s.Opt.StandardSteps)*frac + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
