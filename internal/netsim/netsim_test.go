package netsim

import (
	"math"
	"testing"
)

func uniformBytes(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestCommTimeServerBottleneck(t *testing.T) {
	p := DefaultParams(Mbps10)
	p.Workers = 10
	p.LatencySec = 0
	// 10 workers x 1000 bytes each direction: server moves 10000 bytes.
	got := p.commTime(uniformBytes(10, 1000), uniformBytes(10, 1000))
	want := 10000.0 * 8 / Mbps10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("commTime = %v, want %v", got, want)
	}
}

func TestCommTimeFullDuplex(t *testing.T) {
	p := DefaultParams(Mbps10)
	p.Workers = 2
	p.LatencySec = 0
	// Pushes 100 B, pulls 5000 B: the slower direction dominates.
	got := p.commTime(uniformBytes(2, 100), uniformBytes(2, 5000))
	want := 10000.0 * 8 / Mbps10
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("commTime = %v, want %v", got, want)
	}
}

func TestCommTimeLatencyAdded(t *testing.T) {
	p := DefaultParams(Gbps1)
	p.Workers = 1
	p.LatencySec = 0.01
	got := p.commTime(uniformBytes(1, 0), uniformBytes(1, 0))
	if math.Abs(got-0.02) > 1e-9 {
		t.Errorf("latency-only commTime = %v, want 0.02", got)
	}
}

func TestCommTimeWorkerCountValidation(t *testing.T) {
	p := DefaultParams(Mbps10)
	p.Workers = 3
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.commTime(uniformBytes(2, 1), uniformBytes(3, 1))
}

func TestStepTimeOverlapHidesComm(t *testing.T) {
	p := DefaultParams(Gbps1)
	p.Workers = 1
	p.LatencySec = 0
	p.ComputeSec = 1.0
	p.OverlapFraction = 1.0
	// Comm takes 0.5s, fully hidden behind 1s compute.
	bytes := int(0.5 * Gbps1 / 8)
	got := p.StepTime(uniformBytes(1, bytes), uniformBytes(1, 0), 0)
	if math.Abs(got-1.0) > 1e-6 {
		t.Errorf("fully-hidden step = %v, want 1.0", got)
	}
}

func TestStepTimeExposedComm(t *testing.T) {
	p := DefaultParams(Gbps1)
	p.Workers = 1
	p.LatencySec = 0
	p.ComputeSec = 1.0
	p.OverlapFraction = 0.5
	bytes := int(2.0 * Gbps1 / 8) // 2s of comm
	got := p.StepTime(uniformBytes(1, bytes), uniformBytes(1, 0), 0)
	// 1 + (2 - 0.5) = 2.5
	if math.Abs(got-2.5) > 1e-6 {
		t.Errorf("step = %v, want 2.5", got)
	}
}

func TestStepTimeCodecCharged(t *testing.T) {
	p := DefaultParams(Gbps1)
	p.Workers = 1
	p.ComputeSec = 1.0
	base := p.StepTime(uniformBytes(1, 0), uniformBytes(1, 0), 0)
	withCodec := p.StepTime(uniformBytes(1, 0), uniformBytes(1, 0), 0.1)
	if math.Abs((withCodec-base)-0.1) > 1e-9 {
		t.Errorf("codec charge = %v, want the measured 0.1", withCodec-base)
	}
}

func TestCalibrateProducesPaperRegime(t *testing.T) {
	p := DefaultParams(Gbps1)
	p.Workers = 10
	p.LatencySec = 0
	modelBytes := 150_000
	p.Calibrate(modelBytes, Gbps1, 1.5)
	comm := p.commTime(uniformBytes(10, modelBytes), uniformBytes(10, modelBytes))
	if math.Abs(comm/p.ComputeSec-1.5) > 1e-6 {
		t.Errorf("comm/compute = %v, want 1.5", comm/p.ComputeSec)
	}
}

func TestBandwidthScalingMonotone(t *testing.T) {
	// The same traffic must take ~10x longer at 10 Mbps than 100 Mbps.
	mk := func(bw float64) float64 {
		p := DefaultParams(bw)
		p.Workers = 10
		p.LatencySec = 0
		p.ComputeSec = 0.001
		p.OverlapFraction = 0
		return p.StepTime(uniformBytes(10, 100_000), uniformBytes(10, 100_000), 0)
	}
	t10, t100, t1000 := mk(Mbps10), mk(Mbps100), mk(Gbps1)
	if !(t10 > t100 && t100 > t1000) {
		t.Fatalf("times not monotone: %v %v %v", t10, t100, t1000)
	}
	if r := t10 / t100; r < 9 || r > 11 {
		t.Errorf("10M/100M ratio %v, want ~10", r)
	}
}

func TestMultiServerDividesAggregate(t *testing.T) {
	// Two servers halve the per-NIC load until the worker links floor it.
	one := DefaultParams(Mbps10)
	one.Workers = 10
	one.LatencySec = 0
	two := one
	two.Servers = 2
	t1 := one.commTime(uniformBytes(10, 10000), uniformBytes(10, 10000))
	t2 := two.commTime(uniformBytes(10, 10000), uniformBytes(10, 10000))
	if math.Abs(t1/t2-2) > 1e-9 {
		t.Errorf("2 servers: time ratio %v, want 2", t1/t2)
	}
	// With enough servers the per-worker link becomes the bottleneck.
	many := one
	many.Servers = 100
	tm := many.commTime(uniformBytes(10, 10000), uniformBytes(10, 10000))
	floor := 10000.0 * 8 / Mbps10
	if math.Abs(tm-floor) > 1e-9 {
		t.Errorf("100 servers: time %v, want worker-link floor %v", tm, floor)
	}
}
