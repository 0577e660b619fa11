// Command 3lc-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated substrate.
//
//	3lc-bench -exp table1          # Table 1: speedups + accuracy
//	3lc-bench -exp table2          # Table 2: compression ratios
//	3lc-bench -exp fig4            # Figure 4: time/accuracy @ 10 Mbps
//	3lc-bench -exp fig7            # Figure 7: loss/accuracy series
//	3lc-bench -exp fig9            # Figure 9: bits per state change series
//	3lc-bench -exp shard           # sharded-PS scaling: shard count x codec
//	3lc-bench -exp agg             # aggregation: workers x codec decode-add throughput
//	3lc-bench -exp wan             # hierarchical aggregation over slow inter-region links
//	3lc-bench -exp all             # everything
//
// Runs are cached within a single invocation, so "-exp all" reuses the
// 100%-budget runs across Table 1 and Figures 4-9.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"threelc/internal/compress"
	"threelc/internal/entropy"
	"threelc/internal/experiments"
	"threelc/internal/kernel"
	"threelc/internal/kernel/simd"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/region"
	"threelc/internal/tensor"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1 | table2 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | arch | gradstats | codec | shard | agg | wan | all")
		iters    = flag.Int("iters", 20, "iterations per micro-benchmark measurement (-exp codec); the recorded baseline carries this count")
		steps    = flag.Int("steps", 0, "override standard training steps (default from suite)")
		workers  = flag.Int("workers", 0, "override worker count")
		shards   = flag.String("shards", "1,2,4", "comma-separated shard counts for -exp shard")
		resnet   = flag.Bool("resnet", false, "use the MicroResNet workload instead of the MLP")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		every    = flag.Int("series-every", 10, "subsampling interval for printed series")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		regions  = flag.Int("regions", 2, "region count for -exp wan")
		wanMbps  = flag.Float64("wan-mbps", 100, "inter-region link bandwidth in Mbps for -exp wan")
		wanLatMs = flag.Float64("wan-latency-ms", 20, "one-way inter-region latency in ms for -exp wan")
		benchOut = flag.String("bench-out", "", "with -exp codec: write a benchcheck-schema JSON baseline (e.g. BENCH_local.json)")
	)
	flag.Parse()

	writeCSV := func(name string, emit func(w *os.File) error) error {
		if *csvDir == "" {
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
		switch name {
		case "table1":
			rows, err := experiments.Table1(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable1(os.Stdout, rows)
			if err := writeCSV("table1.csv", func(w *os.File) error {
				return experiments.WriteTable1CSV(w, rows)
			}); err != nil {
				return err
			}
		case "table2":
			rows, err := experiments.Table2(suite)
			if err != nil {
				return err
			}
			experiments.PrintTable2(os.Stdout, rows)
			if err := writeCSV("table2.csv", func(w *os.File) error {
				return experiments.WriteTable2CSV(w, rows)
			}); err != nil {
				return err
			}
		case "arch":
			rows := experiments.ArchitectureContrast(16)
			experiments.PrintArchitectureContrast(os.Stdout, rows)
		case "codec":
			records := codecBench(os.Stdout, *iters)
			if *benchOut != "" {
				if err := writeBenchJSON(*benchOut, records); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
			}
		case "agg":
			var progress io.Writer
			if !*quiet {
				progress = os.Stderr
			}
			rows, err := experiments.AggregateScaling(experiments.AggregateScalingDesigns(), []int{1, 2, 4, 8}, 1<<20, progress)
			if err != nil {
				return err
			}
			experiments.PrintAggregateScaling(os.Stdout, rows)
			if err := writeCSV("agg.csv", func(w *os.File) error {
				return experiments.WriteAggregateScalingCSV(w, rows)
			}); err != nil {
				return err
			}
		case "shard":
			counts, err := parseShardCounts(*shards)
			if err != nil {
				return err
			}
			var progress io.Writer
			if !*quiet {
				progress = os.Stderr
			}
			w := 2
			if *workers > 0 {
				w = *workers
			}
			st := 6
			if *steps > 0 {
				st = *steps
			}
			rows, err := experiments.ShardScaling(experiments.ShardScalingDesigns(), counts, w, st, progress)
			if err != nil {
				return err
			}
			experiments.PrintShardScaling(os.Stdout, rows)
			if err := writeCSV("shard.csv", func(w *os.File) error {
				return experiments.WriteShardScalingCSV(w, rows)
			}); err != nil {
				return err
			}
		case "wan":
			var progress io.Writer
			if !*quiet {
				progress = os.Stderr
			}
			w, st := 4, 12
			if *workers > 0 {
				w = *workers
			}
			if *steps > 0 {
				st = *steps
			}
			bw, lat := *wanMbps*1e6, *wanLatMs*1e-3
			rows, err := experiments.WANSweep(experiments.WANDesigns(), experiments.WANTopologies(*regions), w, st, bw, lat, progress)
			if err != nil {
				return err
			}
			experiments.PrintWANSweep(os.Stdout, rows, bw, lat)
			if err := writeCSV("wan.csv", func(w *os.File) error {
				return experiments.WriteWANSweepCSV(w, rows)
			}); err != nil {
				return err
			}
		case "gradstats":
			rows, err := experiments.GradientStatistics(suite, 1.0, 25)
			if err != nil {
				return err
			}
			experiments.PrintGradStats(os.Stdout, rows, 1.0)
		case "fig4", "fig5", "fig6":
			var curves []experiments.Curve
			var err error
			var title string
			switch name {
			case "fig4":
				curves, err = experiments.Figure4(suite)
				title = "Figure 4: Training time and test accuracy using 25/50/75/100% of standard training steps @ 10 Mbps"
			case "fig5":
				curves, err = experiments.Figure5(suite)
				title = "Figure 5: Training time and test accuracy using 25/50/75/100% of standard training steps @ 100 Mbps"
			case "fig6":
				curves, err = experiments.Figure6(suite)
				title = "Figure 6: Training time and test accuracy using 25/50/75/100% of standard training steps @ 1 Gbps"
			}
			if err != nil {
				return err
			}
			experiments.PrintCurves(os.Stdout, title, curves)
			if err := writeCSV(name+".csv", func(w *os.File) error {
				return experiments.WriteCurvesCSV(w, curves)
			}); err != nil {
				return err
			}
		case "fig7":
			series, err := experiments.Figure7(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(os.Stdout, series, *every)
			if err := writeCSV("fig7.csv", func(w *os.File) error {
				return experiments.WriteSeriesCSV(w, series)
			}); err != nil {
				return err
			}
		case "fig8":
			curves, err := experiments.Figure8(suite)
			if err != nil {
				return err
			}
			experiments.PrintCurves(os.Stdout,
				"Figure 8: Training time and test accuracy with a varied sparsity multiplier (s) @ 10 Mbps", curves)
			if err := writeCSV("fig8.csv", func(w *os.File) error {
				return experiments.WriteCurvesCSV(w, curves)
			}); err != nil {
				return err
			}
		case "fig9":
			series, err := experiments.Figure9(suite)
			if err != nil {
				return err
			}
			experiments.PrintFigure9(os.Stdout, series, *every)
			if err := writeCSV("fig9.csv", func(w *os.File) error {
				return experiments.WriteBitsCSV(w, series)
			}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Println()
		return nil
	}

	var names []string
	if *exp == "all" {
		names = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "shard", "agg", "wan"}
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

// parseShardCounts parses the -shards flag ("1,2,4") into shard counts.
func parseShardCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, e.g. -shards 1,2,4)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards lists no counts")
	}
	return out, nil
}

// benchRecord is one benchcheck-schema benchmark entry for the
// BENCH_local.json perf-trajectory baseline (-bench-out). Field names
// match cmd/benchcheck's Report so the local baseline and the CI artifact
// diff directly.
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type benchReport struct {
	Benchmarks []benchRecord `json:"benchmarks"`
}

// writeBenchJSON writes the collected codec measurements as a
// benchcheck-compatible JSON baseline.
func writeBenchJSON(path string, records []benchRecord) error {
	data, err := json.MarshalIndent(benchReport{Benchmarks: records}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// codecBench is a quick in-process measurement of the zero-allocation
// compression pipeline: steady-state CompressInto throughput per scheme at
// 1M elements, the staged-vs-fused kernel comparison, the fused
// decode-accumulate vs decode-then-add aggregation comparison, and the
// full parameter-server push/pull round trip. It is the CLI companion of
// the -benchmem benchmarks (`go test -bench
// 'Fused|Staged|DecodeAdd|SteadyState' -benchmem ./internal/...`), for
// eyeballing on a target machine without the test harness; the returned
// records feed the -bench-out baseline, with names matching the go-test
// benchmarks so cmd/benchcheck's -baseline gate can compare them directly.
func codecBench(w *os.File, iters int) []benchRecord {
	const n = 1 << 20
	if iters < 1 {
		iters = 1
	}
	rng := tensor.NewRNG(4)
	in := tensor.New(n)
	tensor.FillNormal(in, 0.01, rng)
	var records []benchRecord

	measure := func(iters int, fn func()) time.Duration {
		fn() // warm up scratch buffers
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				fn()
			}
			if d := time.Since(start) / time.Duration(iters); d < best {
				best = d
			}
		}
		return best
	}

	fmt.Fprintf(w, "Codec micro-benchmark: steady-state CompressInto at %d elements (%d MiB raw)\n\n", n, 4*n>>20)
	fmt.Fprintf(w, "%-22s %12s %10s %12s\n", "design", "ns/op", "MB/s", "bits/elem")
	cases := []struct {
		name string
		s    compress.Scheme
		o    compress.Options
	}{
		{"32-bit float", compress.SchemeNone, compress.Options{}},
		{"8-bit int", compress.SchemeInt8, compress.Options{}},
		{"Stoch 3-value + QE", compress.SchemeStoch3QE, compress.Options{Seed: 1}},
		{"MQE 1-bit int", compress.SchemeMQE1Bit, compress.Options{}},
		{"25% sparsification", compress.SchemeTopK, compress.Options{Fraction: 0.25, Seed: 1}},
		{"3LC (s=1.00)", compress.SchemeThreeLC, compress.Options{Sparsity: 1.0, ZeroRun: true}},
		{"3LC (s=1.75)", compress.SchemeThreeLC, compress.Options{Sparsity: 1.75, ZeroRun: true}},
	}
	for _, c := range cases {
		ctx := compress.New(c.s, []int{n}, c.o)
		var wire []byte
		d := measure(iters, func() { wire = ctx.CompressInto(in, wire[:0]) })
		mbps := float64(4*n) / d.Seconds() / 1e6
		bits := float64(len(wire)) * 8 / float64(n)
		fmt.Fprintf(w, "%-22s %12d %10.0f %12.2f\n", c.name, d.Nanoseconds(), mbps, bits)
		records = append(records, benchRecord{
			Name: "CompressInto/" + c.name, Iterations: int64(iters), NsPerOp: float64(d.Nanoseconds()),
			BytesPerOp: -1, AllocsPerOp: -1,
			Extra: map[string]float64{"MB/s": mbps, "bits/elem": bits},
		})
	}

	// Aggregation: fused decode-accumulate vs staged decode-then-add on a
	// 3LC wire (the server-side AddPush hot path). Names match the
	// go-test benchmarks in internal/kernel.
	{
		ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.75, ZeroRun: true})
		wire := ctx.CompressInto(in, nil)
		sum := tensor.New(n)
		scratch := tensor.New(n)
		fused := measure(iters, func() {
			if err := compress.DecompressAddInto(wire, sum, 1); err != nil {
				panic(err)
			}
		})
		staged := measure(iters, func() {
			if err := compress.DecompressInto(wire, scratch); err != nil {
				panic(err)
			}
			sum.Add(scratch)
		})
		fmt.Fprintf(w, "\nAggregation (decode one 1M-element 3LC push into the gradient sum):\n")
		fmt.Fprintf(w, "  decode-then-add %8d ns/op\n", staged.Nanoseconds())
		fmt.Fprintf(w, "  decode-add      %8d ns/op  (%.2fx, single fused pass)\n",
			fused.Nanoseconds(), float64(staged)/float64(fused))
		records = append(records,
			benchRecord{Name: "DecodeThenAdd/1M", Iterations: int64(iters), NsPerOp: float64(staged.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1},
			benchRecord{Name: "DecodeAdd/1M", Iterations: int64(iters), NsPerOp: float64(fused.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1,
				Extra: map[string]float64{"speedup": float64(staged) / float64(fused)}})
	}

	// mkStep builds one full push/pull round trip (the ps steady-state
	// benchmark workload) over the given model maker.
	mkStep := func(model func() *nn.Model) func() {
		cfg := ps.Config{
			Scheme:           compress.SchemeThreeLC,
			Opts:             compress.Options{Sparsity: 1.75, ZeroRun: true},
			Workers:          1,
			MinCompressElems: 8, // matches internal/ps's benchmark config
			Parallelism:      1,
			Optimizer:        opt.DefaultSGDConfig(1, 1000),
		}
		global := model()
		server := ps.NewJob(global, cfg)
		m := model()
		m.CopyParamsFrom(global)
		worker := ps.NewWorker(0, m, cfg)
		grng := tensor.NewRNG(31)
		for _, p := range worker.Model.Params() {
			tensor.FillNormal(p.G, 0.01, grng)
		}
		return func() {
			wires, _ := worker.CompressGrads()
			server.BeginStep()
			if _, err := server.AddPush(0, wires); err != nil {
				panic(err)
			}
			pull, _, err := server.FinishStep()
			if err != nil {
				panic(err)
			}
			if _, err := worker.ApplyPull(pull); err != nil {
				panic(err)
			}
		}
	}
	benchModel := func() *nn.Model { return nn.NewMLP(784, []int{256}, 10, 1) }

	// Full parameter-server round trip — the committed perf baseline the
	// CI bench leg gates BenchmarkSteadyStatePushPull against — and the
	// same round trip on a many-tiny-tensor model (100 hidden layers of
	// width 8, ~200 tensors of at most 64 elements), where the per-tensor
	// cost rather than the kernels is what is measured.
	{
		tinyModel := func() *nn.Model {
			hidden := make([]int, 100)
			for i := range hidden {
				hidden[i] = 8
			}
			return nn.NewMLP(8, hidden, 3, 1)
		}
		step := measure(iters, mkStep(benchModel))
		tiny := measure(iters, mkStep(tinyModel))
		fmt.Fprintf(w, "\nSteady-state push/pull round trip (ps, serial codecs):\n")
		fmt.Fprintf(w, "  MLP 784-256-10                      %8d ns/op\n", step.Nanoseconds())
		fmt.Fprintf(w, "  MLP 8-8x100-3 (~200 tiny tensors)   %8d ns/op\n", tiny.Nanoseconds())
		records = append(records,
			benchRecord{Name: "SteadyStatePushPull", Iterations: int64(iters), NsPerOp: float64(step.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1},
			benchRecord{Name: "SteadyStatePushPullTiny", Iterations: int64(iters), NsPerOp: float64(tiny.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1})
	}

	// Streaming entropy second stage over the 1M-element 3LC quartic wire
	// (the paper's §5.3 comparison workload). Record names match
	// internal/entropy's BenchmarkEntropyStage sub-benchmarks; the encode
	// ratio feeds the CI -min-metric floor.
	{
		ctx := compress.New(compress.SchemeThreeLC, []int{n}, compress.Options{Sparsity: 1.0, ZeroRun: true})
		raw := ctx.CompressInto(in, nil)
		fmt.Fprintf(w, "\nEntropy second stage (over the %d-byte 3LC s=1.00 quartic wire):\n", len(raw))
		fmt.Fprintf(w, "  %-8s %14s %7s %14s %7s\n", "stage", "encode ns/op", "ratio", "decode ns/op", "MB/s")
		stages := []struct {
			name   string
			encode func(dst, src []byte) []byte
			decode func(dst, src []byte) ([]byte, error)
		}{
			{"huffman", entropy.HuffmanEncodeInto, entropy.HuffmanDecodeInto},
			{"lz", entropy.LZEncodeInto, entropy.LZDecodeInto},
		}
		for _, s := range stages {
			var coded, back []byte
			enc := measure(iters, func() { coded = s.encode(coded[:0], raw) })
			ratio := float64(len(raw)) / float64(len(coded))
			dec := measure(iters, func() {
				var err error
				if back, err = s.decode(back[:0], coded); err != nil {
					panic(err)
				}
			})
			decMBps := float64(len(raw)) / dec.Seconds() / 1e6
			fmt.Fprintf(w, "  %-8s %14d %6.2fx %14d %7.0f\n",
				s.name, enc.Nanoseconds(), ratio, dec.Nanoseconds(), decMBps)
			records = append(records,
				benchRecord{Name: "EntropyStage/" + s.name + "-encode", Iterations: int64(iters), NsPerOp: float64(enc.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1,
					Extra: map[string]float64{"ratio": ratio}},
				benchRecord{Name: "EntropyStage/" + s.name + "-decode", Iterations: int64(iters), NsPerOp: float64(dec.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1,
					Extra: map[string]float64{"MB/s": decMBps}})
		}
	}

	// Hierarchical push/pull: a full two-region recompress step (fused
	// decode-accumulate, re-encode with the entropy stage, global tier
	// update) against a real parameter server. Mirrors internal/region's
	// BenchmarkHierarchicalPushPull workload.
	{
		model := nn.NewMLP(256, []int{64}, 8, 1)
		cfg := ps.Config{
			Scheme:           compress.SchemeThreeLC,
			Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
			Workers:          4,
			MinCompressElems: 1,
			Parallelism:      1,
			Optimizer:        opt.DefaultSGDConfig(4, 1000),
		}
		inner := ps.NewJob(model, cfg)
		tier, err := region.NewTier(inner, model.Params(), region.Config{
			Regions: 2, Workers: 4, Recompress: true,
			Scheme:           compress.SchemeThreeLC,
			Opts:             compress.Options{Sparsity: 1.0, ZeroRun: true},
			Entropy:          compress.EntropyHuffman,
			MinCompressElems: 1,
			Parallelism:      1,
		})
		if err != nil {
			panic(err)
		}
		params := model.Params()
		rng := tensor.NewRNG(7)
		wires := make([][][]byte, 4)
		for wk := range wires {
			wires[wk] = make([][]byte, len(params))
			for i, p := range params {
				g := tensor.New(p.W.Shape()...)
				tensor.FillNormal(g, 0.01, rng)
				c := compress.New(compress.SchemeThreeLC, p.W.Shape(), compress.Options{Sparsity: 1.0, ZeroRun: true, Seed: uint64(wk*31 + i)})
				wires[wk][i] = c.CompressInto(g, nil)
			}
		}
		d := measure(iters, func() {
			tier.BeginStep()
			for wk := 0; wk < 4; wk++ {
				sess := tier.BeginPush(wk)
				if err := sess.Set(wires[wk]); err != nil {
					panic(err)
				}
				if err := sess.End(); err != nil {
					panic(err)
				}
			}
			if _, _, err := tier.FinishStep(); err != nil {
				panic(err)
			}
		})
		push, pull := tier.WANBytes()
		wan := 0
		for r := range push {
			wan += push[r] + pull[r]
		}
		fmt.Fprintf(w, "\nHierarchical push/pull (2 regions x 2 workers, recompress + Huffman WAN stage, MLP 256-64-8):\n")
		fmt.Fprintf(w, "  %8d ns/op  %d WAN bytes/step\n", d.Nanoseconds(), wan)
		records = append(records, benchRecord{
			Name: "HierarchicalPushPull", Iterations: int64(iters), NsPerOp: float64(d.Nanoseconds()),
			BytesPerOp: -1, AllocsPerOp: -1,
			Extra: map[string]float64{"wan-bytes/step": float64(wan)},
		})
	}

	// Dispatched kernel tiers: the dispatched sweeps at 1M elements on
	// every tier this CPU/build can run, each in ns per element beside the
	// memcpy roofline it is held against — accumulate+|max| (compress pass
	// 1), the fused ternary encode (pass 2) and the LUT decode-add, both on
	// a dense and on a 0.998-zero input, the fused SGD sweep in both forms,
	// and the raw float32 put and add. Record names and inputs match
	// internal/kernel's tier benchmarks (tierbench_test.go); like there, the
	// last three columns rotate through 8 copies of their operands, because
	// the raw tensors they stand for never sit in a cache.
	{
		orig := kernel.ActiveTier()
		buf := make([]float32, n)
		acc := make([]float32, n)
		dst := make([]float32, n)
		cp := measure(iters, func() { copy(dst, in.Data()) })
		perElem := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

		// Encode and decode-add inputs: uniform on [-1, 1) (half the
		// digits non-zero, 97 % literal groups: quantize+pack and the
		// literal cores decide) and 0.2 % non-zero elements (the zero
		// fraction bench/ measures on lan-3lc: ~92 % of the 40-element
		// blocks all-zero, a walk over run markers and isolated literals).
		// Decode-add wires are quantized at s = 1.00; the encode runs dense
		// at s = 1.00 and sparse at the s = 1.75 of the end-to-end runs.
		drng := tensor.NewRNG(4)
		dense, sparse := make([]float32, n), make([]float32, n)
		for i := range dense {
			dense[i] = float32(drng.Uint64()%(1<<24))/(1<<23) - 1
			if r := drng.Uint64() % 1000; r < 2 {
				sparse[i] = float32(r)*2 - 1
			}
		}
		type tierIn struct {
			name     string
			snapshot []float32 // accumulated, not yet encoded
			encM     float64
			wire     []byte // decode-add input
			decM     float32
		}
		var ins [2]tierIn
		for k, d := range []struct {
			name string
			data []float32
			s    float64
		}{{"dense", dense, 1}, {"sparse", sparse, 1.75}} {
			snapshot := make([]float32, n)
			dm := float64(kernel.AccumulateMaxAbs(snapshot, d.data))
			resid := append([]float32(nil), snapshot...)
			ins[k] = tierIn{d.name, snapshot, dm * d.s, kernel.EncodeTernary(resid, dm, true, nil), float32(dm)}
		}

		// Fused SGD sweep streams.
		sgdW, sgdG := make([]float32, n), make([]float32, n)
		for i := range sgdW {
			sgdW[i] = 5 * in.Data()[i]
			sgdG[i] = in.Data()[n-1-i]
		}
		sgdV, sgdAcc := make([]float32, n), make([]float32, n)

		// Cache-cold operands of the delta sweep and the raw cores.
		const coldBufs = 8
		var coldW, coldV, coldG, coldD [coldBufs][]float32
		var coldWire [coldBufs][]byte
		for k := 0; k < coldBufs; k++ {
			coldW[k], coldG[k] = append([]float32(nil), sgdW...), append([]float32(nil), sgdG...)
			coldV[k], coldD[k] = make([]float32, n), make([]float32, n)
			coldWire[k] = kernel.AppendRaw([]byte{0}, in.Data()) // payload one scheme byte in
		}
		turn := 0
		cold := func(fn func(k int)) time.Duration {
			return measure(iters, func() { fn(turn % coldBufs); turn++ })
		}

		fmt.Fprintf(w, "\nKernel tiers at %d elements (auto tier %s, AVX2=%v, asm=%v), ns/elem:\n", n, orig, simd.Detect().AVX2, simd.HasAsm)
		fmt.Fprintf(w, "  %-8s %11s %13s %14s %14s %15s %9s %10s %8s %8s\n", "tier", "accumulate", "encode dense", "encode sparse", "dec-add dense", "dec-add sparse", "sgd step", "sgd delta", "raw put", "raw add")
		fmt.Fprintf(w, "  %-8s %11.2f  (%.1f GB/s copy, 4 B read + 4 B written per element; a read-only stream is about half)\n",
			"memcpy", perElem(cp), float64(4*n)/cp.Seconds()/1e9)
		rec := func(name string, d time.Duration) {
			records = append(records, benchRecord{Name: name, Iterations: int64(iters), NsPerOp: float64(d.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1})
		}
		var wire []byte
		for _, tier := range kernel.AvailableTiers() {
			kernel.SetTier(tier)
			accum := measure(iters, func() { kernel.AccumulateMaxAbs(acc, in.Data()) })
			var enc, dec [2]time.Duration
			for k, d := range ins {
				// The encode consumes its buffer (it leaves the residual
				// behind), so each call restores from the snapshot and
				// times only the encode itself.
				copy(buf, d.snapshot)
				wire = kernel.EncodeTernary(buf, d.encM, true, wire[:0]) // converge wire capacity
				enc[k] = time.Duration(1<<63 - 1)
				for trial := 0; trial < 3; trial++ {
					var total time.Duration
					for i := 0; i < iters; i++ {
						copy(buf, d.snapshot)
						start := time.Now()
						wire = kernel.EncodeTernary(buf, d.encM, true, wire[:0])
						total += time.Since(start)
					}
					enc[k] = min(enc[k], total/time.Duration(iters))
				}
				dec[k] = measure(iters, func() {
					if err := kernel.DecodeTernaryAdd(d.wire, true, d.decM, dst); err != nil {
						panic(err)
					}
				})
				rec("EncodeTernaryKernel/"+tier.String()+"/"+d.name, enc[k])
				rec("DecodeAddKernel/"+tier.String()+"/"+d.name, dec[k])
			}
			sgd := measure(iters, func() { kernel.FusedSGDStep(sgdW, sgdV, sgdG, sgdAcc, 0.5, 1e-4, 0.9, 0.0004) })
			sgdDelta := cold(func(k int) { kernel.FusedSGDStepDelta(coldW[k], coldV[k], coldG[k], coldD[k], 0.5, 1e-4, 0.9, 0.0004) })
			rawPut := cold(func(k int) { coldWire[k] = kernel.AppendRaw(coldWire[k][:1], coldG[k]) })
			rawAdd := cold(func(k int) { kernel.RawAdd(coldD[k], coldWire[k][1:]) })
			fmt.Fprintf(w, "  %-8s %11.2f %13.2f %14.2f %14.2f %15.2f %9.2f %10.2f %8.2f %8.2f\n",
				tier, perElem(accum), perElem(enc[0]), perElem(enc[1]), perElem(dec[0]), perElem(dec[1]), perElem(sgd),
				perElem(sgdDelta), perElem(rawPut), perElem(rawAdd))
			rec("AccumulateMaxAbsKernel/"+tier.String()+"/1M", accum)
			rec("FusedSGDStepKernel/"+tier.String()+"/1M", sgd)
			rec("FusedSGDStepKernel/"+tier.String()+"/delta", sgdDelta)
			rec("RawPutKernel/"+tier.String()+"/1M", rawPut)
			rec("RawAddKernel/"+tier.String()+"/1M", rawAdd)
		}
		kernel.SetTier(orig)
	}

	// Staged-vs-fused kernel comparison: what collapsing seven sweeps to
	// two (compress) and two to one (decode) buys on this machine.
	fmt.Fprintln(w)
	fusion := experiments.FusionSpeedup(n, 1.75)
	experiments.PrintFusionSpeedup(w, fusion)
	for _, r := range fusion {
		records = append(records,
			benchRecord{Name: "Staged/" + r.Name, Iterations: 3, NsPerOp: r.StagedNs, BytesPerOp: -1, AllocsPerOp: -1},
			benchRecord{Name: "Fused/" + r.Name, Iterations: 3, NsPerOp: r.FusedNs, BytesPerOp: -1, AllocsPerOp: -1,
				Extra: map[string]float64{"speedup": r.Speedup()}})
	}
	return records
}
