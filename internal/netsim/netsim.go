// Package netsim models the cluster network of the paper's evaluation
// (§5.2): a parameter-server star topology in which every node's NIC is
// rate-limited to an emulated bandwidth (the paper uses Linux Traffic
// Control at 10 Mbps, 100 Mbps, and 1 Gbps). Given the exact wire bytes a
// training step produces, it computes the step's communication time and —
// combined with a virtual per-step computation time — the end-to-end
// virtual training time.
//
// The paper itself *extrapolates* slow-network training time from per-step
// measurements (§5.2 "Measurement Methodology"); this package implements
// the same first-order model explicitly:
//
//	stepTime = compute + codec + max(0, comm - overlap*compute)
//
// where the overlap term models the fine-grained barriers of §2.1 that let
// state-change transmission hide behind the forward/backward pass.
package netsim

import "fmt"

// Standard emulated bandwidths from the paper.
const (
	Mbps10  = 10e6
	Mbps100 = 100e6
	Gbps1   = 1e9
)

// Params describes the virtual cluster.
type Params struct {
	// Workers is the number of worker nodes (paper: 10).
	Workers int
	// Servers is the number of parameter-server nodes the model is
	// partitioned across (Figure 1 shows several; the paper's evaluation
	// uses one). Aggregate push/pull traffic divides across the server
	// NICs. Zero means 1.
	Servers int
	// BandwidthBps is every node's emulated NIC bandwidth in bits/sec
	// (full duplex, as Ethernet NICs are).
	BandwidthBps float64
	// LatencySec is the one-way per-message latency.
	LatencySec float64
	// ComputeSec is the virtual per-step local computation time
	// (forward + backward pass). Calibrate relates it to model size.
	ComputeSec float64
	// OverlapFraction is how much of the compute time communication can
	// hide behind (fine-grained per-layer barriers, §2.1). 0 disables
	// overlap; 1 overlaps fully.
	OverlapFraction float64
}

// DefaultParams returns a 10-worker cluster at the given bandwidth with
// paper-like overlap behavior. ComputeSec is zero; call Calibrate to set
// it relative to a model's traffic volume.
func DefaultParams(bandwidthBps float64) Params {
	return Params{
		Workers:         10,
		BandwidthBps:    bandwidthBps,
		LatencySec:      200e-6,
		OverlapFraction: 0.9,
	}
}

// Calibrate sets ComputeSec so that the uncompressed communication time of
// a model with modelBytes parameters at refBandwidth is ratio times the
// compute time. The paper's ResNet-110 regime has baseline communication
// at 1 Gbps taking roughly 1.5x the computation (Table 1: 3LC speedup
// 1.53 at 1 Gbps once traffic is compressed away), so
// Calibrate(modelBytes, netsim.Gbps1, 1.5) reproduces the paper's
// compute-to-communication balance for any substitute model size.
func (p *Params) Calibrate(modelBytes int, refBandwidth, ratio float64) {
	ref := *p
	ref.BandwidthBps = refBandwidth
	comm := ref.commTime(uniform(p.Workers, modelBytes), uniform(p.Workers, modelBytes))
	p.ComputeSec = comm / ratio
}

func uniform(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// commTime computes the communication time of one step given per-worker
// push and pull wire sizes. The server NIC is the bottleneck: all pushes
// serialize through its ingress and all pulls through its egress; the two
// directions are full duplex and the push->update->pull dependency
// pipelines across layers (fine-grained barriers), so the slower direction
// dominates. Each worker's own link adds a floor for its largest transfer.
func (p Params) commTime(pushBytes, pullBytes []int) float64 {
	if len(pushBytes) != p.Workers || len(pullBytes) != p.Workers {
		panic(fmt.Sprintf("netsim: want %d workers, got %d push / %d pull entries",
			p.Workers, len(pushBytes), len(pullBytes)))
	}
	var sumPush, sumPull, maxWorker float64
	for i := 0; i < p.Workers; i++ {
		sumPush += float64(pushBytes[i])
		sumPull += float64(pullBytes[i])
		w := float64(pushBytes[i])
		if float64(pullBytes[i]) > w {
			w = float64(pullBytes[i])
		}
		if w > maxWorker {
			maxWorker = w
		}
	}
	server := sumPush
	if sumPull > server {
		server = sumPull
	}
	// With the model partitioned across S servers, each server NIC
	// carries ~1/S of the aggregate (perfectly balanced partitions).
	if p.Servers > 1 {
		server /= float64(p.Servers)
	}
	bytesOnWire := server
	if maxWorker > bytesOnWire {
		bytesOnWire = maxWorker
	}
	return bytesOnWire*8/p.BandwidthBps + 2*p.LatencySec
}

// StepTime returns the virtual duration of one training step.
// codecSec is the measured compression+decompression wall time for the
// step (summed over the critical path: one worker's codec work plus the
// server's), charged as it was measured.
func (p Params) StepTime(pushBytes, pullBytes []int, codecSec float64) float64 {
	comm := p.commTime(pushBytes, pullBytes)
	hidden := p.OverlapFraction * p.ComputeSec
	exposed := comm - hidden
	if exposed < 0 {
		exposed = 0
	}
	return p.ComputeSec + codecSec + exposed
}
