package experiments

import (
	"fmt"
	"io"
	"time"

	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/ps"
	"threelc/internal/shard"
	"threelc/internal/tensor"
	"threelc/internal/train"
)

// ShardRow is one (design, shard count) measurement of the sharded
// parameter-server tier.
type ShardRow struct {
	Design string
	Shards int
	// StepsPerSec is the measured in-process push/pull round-trip rate of
	// the tier (every worker pushing, shards decoding + updating +
	// compressing pulls), with each shard pinned to a serial codec — the
	// model of one single-core PS node per shard.
	StepsPerSec float64
	// Speedup is StepsPerSec relative to the same design's smallest
	// measured shard count (1 when the sweep includes it).
	Speedup float64
	// WireMBPerSec is the aggregate push+pull wire traffic the tier
	// sustains at that rate.
	WireMBPerSec float64
	// VirtualStepMs is the netsim step time at 10 Mbps with the aggregate
	// server traffic divided across the shard NICs (netsim.Params.Servers).
	VirtualStepMs float64
}

// shardScalingModel builds the measurement workload: an MLP big enough
// that codec time dominates queueing overhead, with enough tensors
// (4 hidden layers -> 14 tensors) for the packer to balance.
func shardScalingModel() *nn.Model {
	return nn.NewMLP(256, []int{512, 512, 512, 512}, 32, 7)
}

// ShardScaling measures the sharded tier's aggregate push/pull throughput
// as the shard count grows, for each design: the shard-scaling experiment
// behind `3lc-bench -exp shard`. Real speedup requires spare cores
// (GOMAXPROCS >= max shard count); on smaller hosts the rows still print
// so the wire accounting and virtual step times can be inspected.
func ShardScaling(designs []train.Design, shardCounts []int, workers, steps int, progress io.Writer) ([]ShardRow, error) {
	if workers < 1 {
		workers = 2
	}
	if steps < 1 {
		steps = 6
	}
	var rows []ShardRow
	for _, d := range designs {
		for _, count := range shardCounts {
			row, err := measureShard(d, count, workers, steps)
			if err != nil {
				return nil, fmt.Errorf("shard scaling %s x%d: %w", d.Name, count, err)
			}
			rows = append(rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "shard: %-20s shards=%d  %6.1f steps/s\n", d.Name, count, row.StepsPerSec)
			}
		}
	}
	// Speedups are relative to each design's smallest measured shard count
	// (1 when the sweep includes it), computed after the fact so the
	// baseline exists regardless of sweep order (e.g. -shards 4,2,1).
	base := map[string]ShardRow{}
	for _, r := range rows {
		if b, ok := base[r.Design]; !ok || r.Shards < b.Shards {
			base[r.Design] = r
		}
	}
	for i, r := range rows {
		if b := base[r.Design]; b.StepsPerSec > 0 {
			rows[i].Speedup = r.StepsPerSec / b.StepsPerSec
		}
	}
	return rows, nil
}

// measureShard runs one (design, shard count) cell.
func measureShard(d train.Design, shards, workers, steps int) (ShardRow, error) {
	cfg := ps.Config{
		Scheme:           d.Scheme,
		Opts:             d.Opts,
		Workers:          workers,
		MinCompressElems: 1,
		Parallelism:      1, // one single-core PS node per shard
		Optimizer:        opt.DefaultSGDConfig(workers, steps),
	}
	global := shardScalingModel()
	cl, err := shard.NewCluster(global, cfg, shard.Config{Shards: shards})
	if err != nil {
		return ShardRow{}, err
	}
	defer cl.Close()

	wires := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		m := shardScalingModel()
		m.CopyParamsFrom(global)
		wk := ps.NewWorker(w, m, cfg)
		rng := tensor.NewRNG(uint64(w) + 5)
		x := tensor.New(4, 256)
		tensor.FillNormal(x, 1, rng)
		wk.Model.TrainStep(x, []int{0, 1, 2, 3})
		wires[w], _ = wk.CompressGrads()
	}

	var pushBytes, pullBytes int
	var codecSec float64
	round := func() error {
		cl.BeginStep()
		for w := 0; w < workers; w++ {
			push := cl.BeginPush(w)
			if err := push.Set(wires[w]); err != nil {
				return err
			}
			if err := push.End(); err != nil {
				return err
			}
		}
		pulls, dur, err := cl.FinishStep()
		if err != nil {
			return err
		}
		pushBytes = 0
		for w := 0; w < workers; w++ {
			pushBytes += ps.WireBytes(wires[w])
		}
		pullBytes = ps.WireBytes(pulls)
		codecSec = dur.Seconds()
		return nil
	}

	// Warm buffer capacities out of the measurement.
	if err := round(); err != nil {
		return ShardRow{}, err
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		if err := round(); err != nil {
			return ShardRow{}, err
		}
	}
	elapsed := time.Since(start).Seconds()
	sps := float64(steps) / elapsed

	net := netsim.DefaultParams(netsim.Mbps10)
	net.Workers = workers
	net.Calibrate(global.NumParams()*4, netsim.Gbps1, 1.5)
	net.Servers = shards
	perPush := make([]int, workers)
	perPull := make([]int, workers)
	for w := range perPush {
		perPush[w] = pushBytes / workers
		perPull[w] = pullBytes
	}
	virtual := net.StepTime(perPush, perPull, codecSec)

	return ShardRow{
		Design:        d.Name,
		Shards:        shards,
		StepsPerSec:   sps,
		WireMBPerSec:  float64(pushBytes+pullBytes*workers) * sps / 1e6,
		VirtualStepMs: virtual * 1e3,
	}, nil
}

// PrintShardScaling renders the shard-scaling table.
func PrintShardScaling(w io.Writer, rows []ShardRow) {
	fmt.Fprintln(w, "Shard scaling: aggregate push/pull throughput of the sharded PS tier")
	fmt.Fprintln(w, "(each shard = one single-core PS node; speedup vs the design's smallest shard count)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s %7s %12s %9s %12s %15s\n",
		"design", "shards", "steps/sec", "speedup", "wire MB/s", "step@10Mbps ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %7d %12.1f %8.2fx %12.1f %15.1f\n",
			r.Design, r.Shards, r.StepsPerSec, r.Speedup, r.WireMBPerSec, r.VirtualStepMs)
	}
}

// WriteShardScalingCSV emits the rows as CSV.
func WriteShardScalingCSV(w io.Writer, rows []ShardRow) error {
	if _, err := fmt.Fprintln(w, "design,shards,steps_per_sec,speedup,wire_mb_per_sec,virtual_step_ms"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%q,%d,%.3f,%.3f,%.3f,%.3f\n",
			r.Design, r.Shards, r.StepsPerSec, r.Speedup, r.WireMBPerSec, r.VirtualStepMs); err != nil {
			return err
		}
	}
	return nil
}

// ShardScalingDesigns is the default design set for the shard experiment:
// the paper's strongest codec at two sparsity levels plus the cheap int8
// baseline, so the sweep shows scaling for both heavy and light codecs.
func ShardScalingDesigns() []train.Design {
	return []train.Design{
		DesignInt8,
		ThreeLC(1.00),
		ThreeLC(1.75),
	}
}
