// WAN: the paper's motivating scenario — geo-distributed training over a
// constrained wide-area link (regulatory data pinning, metered mobile
// links, §1). Trains with each traffic-reduction design and estimates
// wall-clock training time across a range of WAN bandwidths, then
// switches to the hierarchical two-level topology: regional aggregators
// fuse local pushes so only one stream per region crosses the slow link,
// and a bits/elem x RTT table shows how the reduced WAN volume trades
// against link latency.
//
//	go run ./examples/wan
package main

import (
	"fmt"

	"threelc/internal/compress"
	"threelc/internal/netsim"
	"threelc/internal/train"
)

func main() {
	const workers = 10
	const steps = 100

	// Every run is 3lc-train's configuration: the MLP, the tuned SGD schedule.
	job := func(d train.Design) train.Config {
		return train.CLIConfig(train.CLIOptions{Design: d, Workers: workers, Steps: steps,
			Batch: 32, Bandwidth: netsim.Mbps10, Seed: 1})
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

	// --- Hierarchical two-level aggregation -----------------------------
	//
	// Same scenario, but the workers are split into regions: each region's
	// aggregator fuses its local pushes and only one stream per region
	// crosses the WAN. Exact mode relays worker wires verbatim
	// (bit-identical model state to flat training); recompress re-encodes
	// one residual stream per region. The RTT columns are exact re-costings
	// of the measured run: the WAN latency term is additive per step, so
	// only the per-step round trip changes between columns.
	const regions = 2
	const wanBW = 10e6 // 10 Mbps slow link
	baseLat := 20e-3   // one-way seconds the runs are costed at
	rtts := []float64{10e-3, 100e-3, 300e-3}

	type topo struct {
		name       string
		recompress bool
	}
	topos := []topo{
		{"hier/exact", false},
		{"hier/recomp", true},
	}
	hierDesigns := []train.Design{designs[1], designs[3]} // 8-bit int, 3LC s=1.00

	fmt.Printf("\n%d regions over a %.0f Mbps WAN link (%d workers, measured bytes):\n\n",
		regions, wanBW/1e6, workers)
	fmt.Printf("%-20s %-18s %12s", "design", "topology", "WAN bits/elem")
	for _, rtt := range rtts {
		fmt.Printf(" %11s", fmt.Sprintf("@RTT %.0fms", rtt*1e3))
	}
	fmt.Println()
	for _, d := range hierDesigns {
		for _, tp := range topos {
			cfg := job(d)
			cfg.Regions, cfg.RegionRecompress = regions, tp.recompress
			cfg.Net.WANBandwidthBps = wanBW
			cfg.Net.WANLatencySec = baseLat
			res, err := train.Run(cfg)
			if err != nil {
				panic(err)
			}
			// Inter-region traffic per step per model element, push+pull
			// summed over regions.
			bitsPerElem := float64(res.TotalWANBytes) * 8 / float64(steps) / float64(res.NumParam)
			fmt.Printf("%-20s %-18s %13.2f", d.Name, tp.name, bitsPerElem)
			for _, rtt := range rtts {
				// One WAN round trip per step: swap the costed RTT for the
				// target one. (The bandwidth term is untouched.)
				t := res.TotalVirtualSec + (rtt-2*baseLat)*float64(steps)
				fmt.Printf(" %9.1f s", t)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nExact relay is bit-identical to flat training; recompress re-encodes one")
	fmt.Println("residual stream per region (error accumulation retries what requantization")
	fmt.Println("drops).")
}
