package experiments

import (
	"fmt"
	"io"

	"threelc/internal/data"
	"threelc/internal/netsim"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/train"
)

// WANTopology is one point of the topology axis of the WAN experiment.
type WANTopology struct {
	Label string
	// Regions is the hierarchical region count (1 = flat star topology).
	Regions    int
	Recompress bool
}

// WANTopologies is the default topology axis: flat reference, exact
// hierarchical relay, and fused recompress.
func WANTopologies(regions int) []WANTopology {
	if regions < 2 {
		regions = 2
	}
	return []WANTopology{
		{Label: "flat", Regions: 1},
		{Label: "hier/exact", Regions: regions},
		{Label: "hier/recomp", Regions: regions, Recompress: true},
	}
}

// WANRow is one (design, topology) measurement.
type WANRow struct {
	Design   string
	Topology string
	Regions  int
	// WANKBPerStep is the mean inter-region traffic per step across the
	// slow links, both directions summed over all regions. Zero for the
	// flat topology (nothing crosses a WAN).
	WANKBPerStep float64
	// WANBitsPerElem is that traffic normalized to model size:
	// WAN bits per model element per step.
	WANBitsPerElem float64
	// WANReduction is the same design's exact-relay WAN traffic divided
	// by this row's — how much the mode saved on the slow link
	// (1.00 for the exact relay itself, 0 where no WAN exists).
	WANReduction float64
	// StepMs is the mean virtual step time under the simulated topology.
	StepMs float64
	// Accuracy is the final test accuracy (bit-identical to flat for the
	// exact topologies; recompress re-quantizes and may drift).
	Accuracy float64
}

// wanWorkload is the fixed small training workload all WAN cells share.
func wanWorkload(d train.Design, workers, steps int) train.Config {
	dcfg := data.DefaultConfig()
	dcfg.Train, dcfg.Test = 240, 80
	in := dcfg.C * dcfg.H * dcfg.W
	optCfg := opt.TunedSGDConfig(workers, steps)
	cfg := train.Config{
		Design:         d,
		Workers:        workers,
		BatchPerWorker: 8,
		Steps:          steps,
		Data:           dcfg,
		BuildModel:     func() *nn.Model { return nn.NewMLP(in, []int{32}, dcfg.Classes, 1) },
		FlatInput:      true,
		Net:            netsim.DefaultParams(netsim.Gbps1),
		Optimizer:      &optCfg,
		Seed:           1,
	}
	cfg.Net.Workers = workers
	return cfg
}

// WANSweep measures every (design, topology) cell of the WAN experiment
// behind `3lc-bench -exp wan`: the local tier runs at 1 Gbps while each
// region's link to the global tier is throttled to wanBps with one-way
// latency wanLatencySec. Reported WAN bytes are measured wire sizes, not
// estimates.
func WANSweep(designs []train.Design, topos []WANTopology, workers, steps int, wanBps, wanLatencySec float64, progress io.Writer) ([]WANRow, error) {
	if workers < 2 {
		workers = 4
	}
	if steps < 1 {
		steps = 12
	}
	var rows []WANRow
	for _, d := range designs {
		exactKB := 0.0
		for _, topo := range topos {
			cfg := wanWorkload(d, workers, steps)
			cfg.Regions = topo.Regions
			cfg.RegionRecompress = topo.Recompress
			if topo.Regions > 1 {
				cfg.Net.WANBandwidthBps = wanBps
				cfg.Net.WANLatencySec = wanLatencySec
			}
			res, err := train.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("wan sweep %s %s: %w", d.Name, topo.Label, err)
			}
			row := WANRow{
				Design:   d.Name,
				Topology: topo.Label,
				Regions:  topo.Regions,
				StepMs:   res.PerStepSec * 1e3,
				Accuracy: res.FinalAccuracy,
			}
			if topo.Regions > 1 {
				perStep := float64(res.TotalWANBytes) / float64(steps)
				row.WANKBPerStep = perStep / 1e3
				row.WANBitsPerElem = perStep * 8 / float64(res.NumParam)
				if exactKB == 0 && !topo.Recompress {
					exactKB = row.WANKBPerStep
				}
				if exactKB > 0 {
					row.WANReduction = exactKB / row.WANKBPerStep
				}
			}
			rows = append(rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "wan: %-20s %-18s %8.1f KB/step  %7.2f ms/step\n",
					d.Name, topo.Label, row.WANKBPerStep, row.StepMs)
			}
		}
	}
	return rows, nil
}

// WANDesigns is the default design axis: the uncompressed baseline, the
// cheap quantizer, and 3LC — the codecs whose WAN behavior brackets the
// paper's traffic spectrum.
func WANDesigns() []train.Design {
	return []train.Design{
		DesignFloat32,
		DesignInt8,
		ThreeLC(1.00),
	}
}

// PrintWANSweep renders the WAN experiment table.
func PrintWANSweep(w io.Writer, rows []WANRow, wanBps, wanLatencySec float64) {
	fmt.Fprintf(w, "WAN experiment: hierarchical two-level aggregation over %.0f Mbps inter-region links (%.0f ms one-way)\n",
		wanBps/1e6, wanLatencySec*1e3)
	fmt.Fprintln(w, "(WAN KB/step is measured slow-link traffic; reduction is vs the same design's exact relay)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s %-18s %8s %12s %11s %10s %10s %9s\n",
		"design", "topology", "regions", "WAN KB/step", "bits/elem", "reduction", "step ms", "accuracy")
	for _, r := range rows {
		red := "-"
		if r.WANReduction > 0 {
			red = fmt.Sprintf("%.2fx", r.WANReduction)
		}
		fmt.Fprintf(w, "%-22s %-18s %8d %12.1f %11.2f %10s %10.2f %9.3f\n",
			r.Design, r.Topology, r.Regions, r.WANKBPerStep, r.WANBitsPerElem, red, r.StepMs, r.Accuracy)
	}
}

// WriteWANSweepCSV emits the rows as CSV.
func WriteWANSweepCSV(w io.Writer, rows []WANRow) error {
	if _, err := fmt.Fprintln(w, "design,topology,regions,wan_kb_per_step,wan_bits_per_elem,wan_reduction,step_ms,accuracy"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%q,%q,%d,%.3f,%.4f,%.4f,%.4f,%.4f\n",
			r.Design, r.Topology, r.Regions, r.WANKBPerStep, r.WANBitsPerElem, r.WANReduction, r.StepMs, r.Accuracy); err != nil {
			return err
		}
	}
	return nil
}
