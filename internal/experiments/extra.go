package experiments

import (
	"fmt"
	"io"
	"time"

	"threelc/internal/nn"
	"threelc/internal/ps"
	"threelc/internal/stats"
	"threelc/internal/tensor"
	"threelc/internal/train"
)

// ArchRow compares one architecture's parameter-to-computation profile.
type ArchRow struct {
	Name string
	// Params is the trainable parameter count (bytes on the wire per
	// uncompressed push = 4*Params).
	Params int
	// StepMillis is the measured wall time of one forward+backward pass
	// on a fixed batch.
	StepMillis float64
	// BytesPerComputeMs is push traffic per unit of computation — the
	// quantity §5.2 argues makes ResNet a *harder* (lower-traffic) target
	// for communication reduction than VGG-style networks.
	BytesPerComputeMs float64
}

// ArchitectureContrast reproduces the paper's §5.2 architectural argument:
// "Compared to traditional neural network architectures such as VGG,
// ResNet models typically have small parameter count to computation
// ratios, generating less state change traffic for the same amount of
// communication." It measures both model families on identical input.
func ArchitectureContrast(batch int) []ArchRow {
	resCfg := nn.DefaultMicroResNet()
	vggCfg := nn.DefaultVGGNano()
	models := []struct {
		name  string
		model *nn.Model
	}{
		{"MicroResNet (ResNet-style)", nn.NewMicroResNet(resCfg)},
		{"VGGNano (VGG-style)", nn.NewVGGNano(vggCfg)},
	}

	rng := tensor.NewRNG(99)
	x := tensor.New(batch, 3, 16, 16)
	tensor.FillNormal(x, 1, rng)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}

	var rows []ArchRow
	for _, m := range models {
		// Warm up once, then measure a few steps.
		m.model.TrainStep(x, labels)
		const reps = 3
		start := time.Now()
		for i := 0; i < reps; i++ {
			m.model.TrainStep(x, labels)
		}
		ms := float64(time.Since(start).Milliseconds()) / reps
		if ms <= 0 {
			ms = 0.01
		}
		rows = append(rows, ArchRow{
			Name:              m.name,
			Params:            m.model.NumParams(),
			StepMillis:        ms,
			BytesPerComputeMs: float64(4*m.model.NumParams()) / ms,
		})
	}
	return rows
}

// PrintArchitectureContrast renders the comparison.
func PrintArchitectureContrast(w io.Writer, rows []ArchRow) {
	fmt.Fprintln(w, "Architecture contrast (paper §5.2): parameter-to-computation ratio")
	fmt.Fprintf(w, "%-28s %12s %14s %20s\n", "Architecture", "Params", "Step (ms)", "Push bytes per ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12d %14.1f %20.0f\n", r.Name, r.Params, r.StepMillis, r.BytesPerComputeMs)
	}
}

// GradStatsRow records the distribution of the quantizer's input at one
// training step, linking tensor statistics to achieved compression
// (package stats).
type GradStatsRow struct {
	Step int
	// Summary describes e + g, the error-accumulated gradient 3LC
	// quantizes (train.Config.OnGradients).
	Summary stats.Summary
	// QuantZeroFrac is the zero fraction 3-value quantization produces on
	// e + g at the given sparsity multiplier.
	QuantZeroFrac float64
	// PredictedZRERatio is the analytical zero-run ratio estimate at that
	// zero fraction (iid model; real data is correlated).
	PredictedZRERatio float64
	// MeasuredBits is the recorded compressed push size at that step
	// (bits per state change).
	MeasuredBits float64
}

// GradientStatistics runs 3LC training with a gradient-observation hook
// and correlates per-step statistics of the quantizer's input with
// measured compression, explaining *why* the ratios in Table 2 come out as
// they do on this workload: compression tracks the zero fraction of the
// quantized e + g, which tracks its tail weight. The hook sees e + g
// because a worker's 3LC tensor's G is its push context's error buffer.
func GradientStatistics(s *Suite, sparsity float64, every int) ([]GradStatsRow, error) {
	if every < 1 {
		every = 1
	}
	steps := s.Opt.StandardSteps
	sampled := make(map[int]GradStatsRow)

	cfg := s.config(ThreeLC(sparsity), steps)
	cfg.Augment, cfg.EvalEvery = false, 0
	cfg.OnGradients = func(step int, params []*nn.Param) {
		if step%every != 0 {
			return
		}
		// Analyze the largest compressible tensor (dominates traffic).
		exempt := ps.Config{Scheme: cfg.Design.Scheme, MinCompressElems: train.MinCompressElems}
		var biggest *nn.Param
		for _, p := range params {
			if !exempt.Compresses(p) {
				continue
			}
			if biggest == nil || p.W.Len() > biggest.W.Len() {
				biggest = p
			}
		}
		if biggest == nil {
			return
		}
		z := stats.QuantSparsity(biggest.G, sparsity)
		sampled[step] = GradStatsRow{
			Step:              step,
			Summary:           stats.Summarize(biggest.G),
			QuantZeroFrac:     z,
			PredictedZRERatio: stats.ZeroRunRatioEstimate(z),
		}
	}
	r, err := train.Run(cfg)
	if err != nil {
		return nil, err
	}
	elems := float64(r.CompressibleElems)
	var rows []GradStatsRow
	for _, sr := range r.StepRecords {
		row, ok := sampled[sr.Step]
		if !ok {
			continue
		}
		row.MeasuredBits = sr.CompPushBytes * 8 / elems
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintGradStats renders the series.
func PrintGradStats(w io.Writer, rows []GradStatsRow, sparsity float64) {
	fmt.Fprintf(w, "Statistics of e + g, the quantizer's input, vs compression (3LC s=%.2f, largest tensor)\n", sparsity)
	fmt.Fprintf(w, "%6s %10s %10s %8s %12s %14s %14s\n",
		"step", "std(e+g)", "max|e+g|", "kurt", "quant-zeros", "pred-ZRE(x)", "push bits")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %10.2e %10.2e %8.1f %11.1f%% %14.2f %14.3f\n",
			r.Step, r.Summary.Std, r.Summary.MaxAbs, r.Summary.Kurtosis,
			100*r.QuantZeroFrac, r.PredictedZRERatio, r.MeasuredBits)
	}
}
