package nn

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/tensor"
)

// serialForward is Linear.Forward as one chain per output, sample by
// sample: y[r,o] = (+0 + x[r,0]*W[o,0] + … + x[r,in-1]*W[o,in-1]) + b[o].
// It is the reference the batched walk is held to and the serial row of
// BenchmarkLinearForward.
func serialForward(y, x, w, b []float32, in, out int) {
	for r := 0; r < len(x)/in; r++ {
		xrow := x[r*in : (r+1)*in]
		yrow := y[r*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wrow := w[o*in : (o+1)*in]
			var s float32
			for i, xv := range xrow {
				s += xv * wrow[i]
			}
			yrow[o] = s + b[o]
		}
	}
}

// payloadNaN is a quiet NaN with a payload of its own, so a result that
// carries it can be told from one that made a NaN of its own.
var payloadNaN = math.Float32frombits(0x7fc0beef)

// forwardOperands fills a layer's weights and bias and a batch x with
// normal values, every tenth one −0 and a few subnormal (sparse: a product
// with a subnormal operand is slow on x86), and — when the
// shapes leave room — ±Inf and NaN: input row 1 holds −Inf and row 2 NaN,
// weight row 1 +Inf and row 2 NaN, so most outputs stay finite. Every NaN
// planted has one payload, and the cells an Inf could meet as an Inf·0
// inside a chain that already carries that NaN are non-zero, so no chain
// holds two different NaNs (whose sum's bits an add's operand order would
// pick). With four or more samples the last row is all −0 and bias 0 is
// −0, so a chain that does not start from +0 shows.
func forwardOperands(l *Linear, x *tensor.Tensor, rng *tensor.RNG) {
	n, in := x.Shape()[0], l.in
	w, b, xd := l.Weight.W.Data(), l.Bias.W.Data(), x.Data()
	for _, t := range [][]float32{xd, w, b} {
		for i := range t {
			t[i] = float32(rng.Norm())
			switch {
			case i%10 == 3:
				t[i] = negZero
			case i%127 == 6:
				t[i] = float32(math.Copysign(1e-40, float64(t[i]))) // subnormal
			case i%127 == 28:
				t[i] *= 1e-20 // the product of two such is subnormal
			}
		}
	}
	xInf, wInf := in/2, in-1 // the columns of x's −Inf and W's +Inf
	if n >= 3 {
		if l.out >= 2 {
			xd[2*in+wInf] = 1.5 // meets W's +Inf
		}
		xd[in+xInf], xd[2*in] = float32(math.Inf(-1)), payloadNaN
	}
	if l.out >= 3 {
		if n >= 2 {
			w[2*in+xInf] = 0.75 // meets x's −Inf
		}
		w[in+wInf], w[2*in] = float32(math.Inf(1)), payloadNaN
	}
	if n >= 4 {
		row := xd[(n-1)*in : n*in]
		for i := range row {
			row[i] = negZero
		}
		b[0] = negZero
	}
}

// TestLinearForwardMatchesSerial holds Forward's four-sample walk to the
// serial chain bit for bit, at batches that fill no group, one, several
// and leave each remainder, at the end-to-end model's widths, tiny-stream's,
// and two degenerate ones, on inputs and weights holding −0, ±Inf, NaN and
// subnormals — and on a ViewRows input, as Model.Correct walks a held-out
// set. Pairing a chain's adds, or adding b before it ends, fails it.
func TestLinearForwardMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(53)
	for _, wd := range [][2]int{{768, 1024}, {1024, 1024}, {48, 48}, {3, 5}, {1, 1}} {
		in, out := wd[0], wd[1]
		l := NewLinear("l", in, out, rng)
		check := func(name string, x *tensor.Tensor) {
			t.Helper()
			n := x.Shape()[0]
			want := make([]float32, n*out)
			serialForward(want, x.Data(), l.Weight.W.Data(), l.Bias.W.Data(), in, out)
			got := l.Forward(x, false).Data()
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%d->%d %s: y[%d,%d] = %v (%#08x), serial chain gives %v (%#08x)", in, out, name,
					i/out, i%out, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 32, 300} {
			x := tensor.New(n, in)
			forwardOperands(l, x, rng)
			check(fmt.Sprintf("batch %d", n), x)
		}
		whole := tensor.New(40, in)
		forwardOperands(l, whole, rng)
		check("rows [3, 3+EvalRows) of 40", new(tensor.Tensor).ViewRows(whole, 3, 3+EvalRows))
	}
}

// BenchmarkLinearForward times the forward of the end-to-end model's two
// large layers (768 -> 1024 and 1024 -> 1024) at its batch of 4: batch4 is
// Linear.Forward, reading each weight row once for the four samples;
// serial is the chain-per-sample reference, which streams the weights once
// per sample. Both give the same bits.
func BenchmarkLinearForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	layers := []*Linear{NewLinear("fc1", 768, 1024, rng), NewLinear("fc2", 1024, 1024, rng)}
	xs := []*tensor.Tensor{tensor.New(4, 768), tensor.New(4, 1024)}
	ys := [][]float32{make([]float32, 4*1024), make([]float32, 4*1024)}
	for _, x := range xs {
		tensor.FillNormal(x, 1, rng)
	}
	b.Run("batch4", func(b *testing.B) {
		for k, l := range layers {
			l.Forward(xs[k], true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, l := range layers {
				l.Forward(xs[k], true)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, l := range layers {
				serialForward(ys[k], xs[k].Data(), l.Weight.W.Data(), l.Bias.W.Data(), l.in, l.out)
			}
		}
	})
}
