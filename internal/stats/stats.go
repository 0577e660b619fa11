// Package stats computes distribution statistics of state-change tensors.
// The effectiveness of 3LC's pipeline depends entirely on these statistics
// — 3-value quantization exploits the zero-centred concentration of
// gradient values (§3.1), and zero-run encoding's ratio is a direct
// function of the quantized zero fraction (§3.3) — so the experiment
// harness reports them alongside compression results.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"threelc/internal/encode"
	"threelc/internal/tensor"
)

// Summary captures the distribution of one tensor's values.
type Summary struct {
	N        int
	Mean     float64
	Std      float64
	MaxAbs   float64
	MeanAbs  float64
	Kurtosis float64 // excess kurtosis; > 0 means heavier-than-Gaussian tails
	// ZeroFrac is the fraction of exactly-zero values in the input.
	ZeroFrac float64
	// Quantiles of |v| at 50/90/99/99.9 %.
	AbsP50, AbsP90, AbsP99, AbsP999 float64
}

// Summarize computes a Summary of t's values.
func Summarize(t *tensor.Tensor) Summary {
	d := t.Data()
	s := Summary{N: len(d)}
	if len(d) == 0 {
		return s
	}
	var sum, sq float64
	zeros := 0
	abs := make([]float64, len(d))
	for i, v := range d {
		f := float64(v)
		sum += f
		sq += f * f
		a := math.Abs(f)
		abs[i] = a
		if a > s.MaxAbs {
			s.MaxAbs = a
		}
		s.MeanAbs += a
		if v == 0 {
			zeros++
		}
	}
	n := float64(len(d))
	s.Mean = sum / n
	s.MeanAbs /= n
	variance := sq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	s.ZeroFrac = float64(zeros) / n

	if s.Std > 0 {
		var m4 float64
		for _, v := range d {
			z := (float64(v) - s.Mean) / s.Std
			m4 += z * z * z * z
		}
		s.Kurtosis = m4/n - 3
	}

	sort.Float64s(abs)
	q := func(p float64) float64 {
		idx := int(p * float64(len(abs)-1))
		return abs[idx]
	}
	s.AbsP50, s.AbsP90, s.AbsP99, s.AbsP999 = q(0.50), q(0.90), q(0.99), q(0.999)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g max|v|=%.3g p50|v|=%.3g p99|v|=%.3g kurt=%.2f zeros=%.1f%%",
		s.N, s.Mean, s.Std, s.MaxAbs, s.AbsP50, s.AbsP99, s.Kurtosis, 100*s.ZeroFrac)
}

// Histogram is a fixed-width histogram over [-MaxAbs, +MaxAbs].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram of t's values with the given bin count.
func NewHistogram(t *tensor.Tensor, bins int) *Histogram {
	if bins < 1 {
		panic("stats: need at least one bin")
	}
	m := float64(t.MaxAbs())
	if m == 0 {
		m = 1
	}
	h := &Histogram{Lo: -m, Hi: m, Counts: make([]int, bins)}
	w := (h.Hi - h.Lo) / float64(bins)
	for _, v := range t.Data() {
		idx := int((float64(v) - h.Lo) / w)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		h.Counts[idx]++
		h.Total++
	}
	return h
}

// Frac returns the fraction of values in bin i.
func (h *Histogram) Frac(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// QuantSparsity predicts the zero fraction 3-value quantization would
// produce on t at sparsity multiplier s: the fraction of values with
// |v| < M/2 where M = max|t|*s. This is the analytical link between a
// tensor's distribution and 3LC's compression ratio.
func QuantSparsity(t *tensor.Tensor, s float64) float64 {
	m := float64(t.MaxAbs()) * s
	if m == 0 {
		return 1
	}
	half := m / 2
	n := 0
	for _, v := range t.Data() {
		f := float64(v)
		if f < half && f > -half {
			n++
		}
	}
	return float64(n) / float64(t.Len())
}

// ZeroRunRatioEstimate predicts the zero-run encoding compression ratio
// (output bytes over quartic bytes, inverted) at a quantized zero
// fraction z, under an independence assumption: each quartic byte is the
// zero-group byte 121 with probability p = z^5, and maximal runs of 121s
// are geometrically distributed. A run of length 14q+r costs what
// encode.ZeroRunEncode emits for it: a long-run token (255 and the
// uvarint of q−1) when q > 0, and one more byte when r > 0. The ratio is
// unbounded as z → 1 (+Inf at z = 1). Real quantized tensors have
// spatially correlated zeros, so measured ratios typically exceed this
// estimate.
func ZeroRunRatioEstimate(z float64) float64 {
	if z < 0 || z > 1 {
		panic(fmt.Sprintf("stats: zero fraction %v outside [0,1]", z))
	}
	p := math.Pow(z, 5)
	if p >= 1-1e-12 {
		return math.Inf(1) // all bytes are 121: one token, whatever the length
	}
	// Expected output bytes contributed per input byte:
	//   non-121 bytes: (1-p) each costing 1.
	//   runs of 121s: a run starts with rate (1-p)*p per byte; its length
	//   K is geometric with mean 1/(1-p).
	var expOutPerRun float64
	pk := 1.0
	for k := 1; pk >= 1e-15 && k <= 1<<22; k++ {
		cost := 0
		if q := k / encode.RunUnit; q > 0 {
			cost = 1 + max(1, (bits.Len(uint(q-1))+6)/7)
		}
		if k%encode.RunUnit > 0 {
			cost++
		}
		expOutPerRun += pk * (1 - p) * float64(cost) // P(K = k) · bytes
		pk *= p
	}
	outPerByte := (1 - p) + (1-p)*p*expOutPerRun
	return 1 / outPerByte
}
