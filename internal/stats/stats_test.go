package stats

import (
	"math"
	"testing"

	"threelc/internal/encode"
	"threelc/internal/quant"
	"threelc/internal/tensor"
)

func TestSummarizeBasics(t *testing.T) {
	tt := tensor.FromSlice([]float32{-2, 0, 0, 2}, 4)
	s := Summarize(tt)
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 0 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.MaxAbs != 2 {
		t.Errorf("MaxAbs = %v", s.MaxAbs)
	}
	if s.MeanAbs != 1 {
		t.Errorf("MeanAbs = %v", s.MeanAbs)
	}
	if s.ZeroFrac != 0.5 {
		t.Errorf("ZeroFrac = %v", s.ZeroFrac)
	}
	if math.Abs(s.Std-math.Sqrt2) > 1e-9 {
		t.Errorf("Std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(tensor.New(0))
	if s.N != 0 || s.Mean != 0 {
		t.Error("empty tensor summary should be zero-valued")
	}
}

func TestSummarizeGaussianMoments(t *testing.T) {
	rng := tensor.NewRNG(1)
	tt := tensor.New(100000)
	tensor.FillNormal(tt, 2, rng)
	s := Summarize(tt)
	if math.Abs(s.Mean) > 0.05 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2) > 0.05 {
		t.Errorf("Std = %v, want 2", s.Std)
	}
	// Gaussian excess kurtosis is 0; |v| quantiles follow |N(0,2)|.
	if math.Abs(s.Kurtosis) > 0.15 {
		t.Errorf("Kurtosis = %v, want ~0", s.Kurtosis)
	}
	// p50 of |N(0,σ)| = 0.674σ.
	if math.Abs(s.AbsP50-0.674*2) > 0.05 {
		t.Errorf("AbsP50 = %v, want ~1.35", s.AbsP50)
	}
	if !(s.AbsP50 < s.AbsP90 && s.AbsP90 < s.AbsP99 && s.AbsP99 < s.AbsP999) {
		t.Error("quantiles not monotone")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize(tensor.FromSlice([]float32{1, -1}, 2))
	if len(s.String()) == 0 {
		t.Error("String empty")
	}
}

func TestHistogram(t *testing.T) {
	tt := tensor.FromSlice([]float32{-1, -0.5, 0.5, 1}, 4)
	h := NewHistogram(tt, 4)
	if h.Total != 4 {
		t.Errorf("Total = %d", h.Total)
	}
	var sum float64
	for i := range h.Counts {
		sum += h.Frac(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	// Extremes land in the outer bins.
	if h.Counts[0] == 0 || h.Counts[3] == 0 {
		t.Errorf("outer bins empty: %v", h.Counts)
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 bins")
		}
	}()
	NewHistogram(tensor.New(4), 0)
}

func TestQuantSparsityMatchesQuantizer(t *testing.T) {
	// The analytical prediction must equal the quantizer's actual zero
	// count.
	rng := tensor.NewRNG(2)
	tt := tensor.New(10000)
	tensor.FillNormal(tt, 0.1, rng)
	for _, s := range []float64{1.0, 1.5, 1.9} {
		predicted := QuantSparsity(tt, s)
		actual := float64(quant.Quantize3(tt, s).CountZeros()) / float64(tt.Len())
		if math.Abs(predicted-actual) > 1e-9 {
			t.Errorf("s=%v: predicted %v, quantizer produced %v", s, predicted, actual)
		}
	}
}

func TestQuantSparsityZeroTensor(t *testing.T) {
	if QuantSparsity(tensor.New(10), 1.5) != 1 {
		t.Error("zero tensor should be fully sparse")
	}
}

func TestZeroRunRatioEstimateEndpoints(t *testing.T) {
	// z=0: no zeros, ratio 1. z=1: all zeros, one long-run token for any
	// length, so the ratio is unbounded.
	if r := ZeroRunRatioEstimate(0); math.Abs(r-1) > 1e-9 {
		t.Errorf("z=0: ratio %v, want 1", r)
	}
	if r := ZeroRunRatioEstimate(1); !math.IsInf(r, 1) {
		t.Errorf("z=1: ratio %v, want +Inf", r)
	}
	// Monotone in z.
	prev := 0.0
	for z := 0.0; z <= 1.0001; z += 0.05 {
		zz := math.Min(z, 1)
		r := ZeroRunRatioEstimate(zz)
		if r < prev-1e-9 {
			t.Fatalf("ratio not monotone at z=%v", zz)
		}
		prev = r
	}
}

func TestZeroRunRatioEstimateAgainstMeasured(t *testing.T) {
	// On iid ternary data the estimate should be close to the measured
	// zero-run ratio.
	rng := tensor.NewRNG(3)
	n := 200000
	for _, z := range []float64{0.7, 0.9, 0.97, 0.995} {
		q := make([]int8, n)
		zeros := 0
		for i := range q {
			if rng.Float64() < z {
				zeros++
			} else if rng.Float64() < 0.5 {
				q[i] = 1
			} else {
				q[i] = -1
			}
		}
		qe := encode.QuarticEncode(q)
		zre := encode.ZeroRunEncode(qe)
		measured := float64(len(qe)) / float64(len(zre))
		estimated := ZeroRunRatioEstimate(float64(zeros) / float64(n))
		if math.Abs(measured-estimated)/measured > 0.1 {
			t.Errorf("z=%v: measured ratio %.3f vs estimate %.3f", z, measured, estimated)
		}
	}
}

func TestZeroRunRatioEstimateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for z out of range")
		}
	}()
	ZeroRunRatioEstimate(1.5)
}
