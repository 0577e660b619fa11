package opt

import (
	"math"
	"testing"

	"threelc/internal/nn"
	"threelc/internal/tensor"
)

func TestLRWarmupRampsUp(t *testing.T) {
	o := NewSGD(DefaultSGDConfig(10, 1000))
	// Warmup covers the first 10% of steps; the rate must rise from
	// ~BaseLR to ~BaseLR*Workers.
	if o.LR(0) > 0.11 {
		t.Errorf("LR(0) = %v, want ~0.1 (unscaled base)", o.LR(0))
	}
	if o.LR(99) < 0.9 {
		t.Errorf("LR(99) = %v, want ~1.0 (scaled)", o.LR(99))
	}
	for tstep := 1; tstep < 100; tstep++ {
		if o.LR(tstep) < o.LR(tstep-1) {
			t.Fatalf("LR decreased during warmup at step %d", tstep)
		}
	}
}

func TestLRCosineDecaysToFinal(t *testing.T) {
	o := NewSGD(DefaultSGDConfig(10, 1000))
	last := o.LR(999)
	want := 0.001 * 10
	if math.Abs(last-want) > 1e-6 {
		t.Errorf("final LR %v, want %v", last, want)
	}
	// Monotone decrease after warmup.
	for tstep := 101; tstep < 1000; tstep++ {
		if o.LR(tstep) > o.LR(tstep-1)+1e-12 {
			t.Fatalf("LR increased after warmup at step %d", tstep)
		}
	}
}

func TestLRSweepsFullRangeForAnyTotal(t *testing.T) {
	// §5.2: the schedule sweeps the whole range regardless of run length.
	for _, total := range []int{50, 200, 1000} {
		o := NewSGD(DefaultSGDConfig(4, total))
		if math.Abs(o.LR(total-1)-0.004) > 1e-9 {
			t.Errorf("total=%d: final LR %v, want 0.004", total, o.LR(total-1))
		}
	}
}

func TestTunedConfigKeepsStructure(t *testing.T) {
	cfg := TunedSGDConfig(10, 100)
	if cfg.Momentum != 0.9 || cfg.WeightDecay != 1e-4 || cfg.WarmupFrac != 0.1 {
		t.Error("tuned config must keep the paper's momentum/decay/warmup")
	}
	if cfg.BaseLR >= 0.1 {
		t.Error("tuned config must lower the base LR")
	}
}

func TestApplyMomentumMath(t *testing.T) {
	// One parameter, no weight decay, LR pinned via TotalSteps=1.
	cfg := SGDConfig{BaseLR: 0.5, FinalLR: 0.5, Momentum: 0.5, WeightDecay: 0, Workers: 1, TotalSteps: 1}
	o := NewSGD(cfg)
	p := &nn.Param{Name: "w", W: tensor.FromSlice([]float32{1}, 1), G: tensor.FromSlice([]float32{2}, 1)}

	o.Apply([]*nn.Param{p}) // v = 2, w = 1 - 0.5*2 = 0
	if p.W.Data()[0] != 0 {
		t.Fatalf("after step 1: w = %v, want 0", p.W.Data()[0])
	}
	o.Apply([]*nn.Param{p}) // v = 0.5*2 + 2 = 3, w = 0 - 1.5 = -1.5
	if p.W.Data()[0] != -1.5 {
		t.Fatalf("after step 2: w = %v, want -1.5", p.W.Data()[0])
	}
	if o.Step() != 2 {
		t.Errorf("Step() = %d", o.Step())
	}
}

func TestApplyWeightDecay(t *testing.T) {
	cfg := SGDConfig{BaseLR: 1, FinalLR: 1, Momentum: 0, WeightDecay: 0.1, Workers: 1, TotalSteps: 1}
	o := NewSGD(cfg)
	p := &nn.Param{Name: "w", W: tensor.FromSlice([]float32{2}, 1), G: tensor.FromSlice([]float32{0}, 1)}
	o.Apply([]*nn.Param{p}) // g_eff = 0 + 0.1*2 = 0.2; w = 2 - 0.2 = 1.8
	if math.Abs(float64(p.W.Data()[0])-1.8) > 1e-6 {
		t.Errorf("w = %v, want 1.8", p.W.Data()[0])
	}
}

func TestVelocityIsPerParameter(t *testing.T) {
	cfg := SGDConfig{BaseLR: 1, FinalLR: 1, Momentum: 0.9, Workers: 1, TotalSteps: 1}
	o := NewSGD(cfg)
	a := &nn.Param{Name: "a", W: tensor.New(1), G: tensor.FromSlice([]float32{1}, 1)}
	b := &nn.Param{Name: "b", W: tensor.New(1), G: tensor.New(1)}
	o.Apply([]*nn.Param{a, b})
	o.Apply([]*nn.Param{a, b})
	// b never had gradient; its weight must be unchanged.
	if b.W.Data()[0] != 0 {
		t.Errorf("b.W = %v, velocity leaked across params", b.W.Data()[0])
	}
}

func TestOptimizerConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = w^2 with gradients 2w.
	cfg := SGDConfig{BaseLR: 0.1, FinalLR: 0.01, Momentum: 0.9, Workers: 1, TotalSteps: 200}
	o := NewSGD(cfg)
	p := &nn.Param{Name: "w", W: tensor.FromSlice([]float32{5}, 1), G: tensor.New(1)}
	for i := 0; i < 200; i++ {
		p.G.Data()[0] = 2 * p.W.Data()[0]
		o.Apply([]*nn.Param{p})
	}
	if math.Abs(float64(p.W.Data()[0])) > 0.01 {
		t.Errorf("did not converge: w = %v", p.W.Data()[0])
	}
}
