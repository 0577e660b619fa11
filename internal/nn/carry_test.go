package nn

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/tensor"
)

// negZero is −0, which a residual may hold and a product may be.
var negZero = float32(math.Copysign(0, -1))

// carryInput fills t with normal values, every fifth one +0 or −0, so that
// a dout of either sign times an input makes ±0 products.
func carryInput(t *tensor.Tensor, rng *tensor.RNG) {
	tensor.FillNormal(t, 1, rng)
	for i := range t.Data() {
		switch i % 10 {
		case 3:
			t.Data()[i] = 0
		case 8:
			t.Data()[i] = negZero
		}
	}
}

// zeroOutput clears every sample's dout of output channel ch, where dout
// is [N, C, rest...] flattened: an output whose batch gradient is +0.
func zeroOutput(dout *tensor.Tensor, ch int) {
	s := dout.Shape()
	plane := dout.Len() / (s[0] * s[1])
	for b := 0; b < s[0]; b++ {
		clear(dout.Data()[(b*s[1]+ch)*plane : (b*s[1]+ch+1)*plane])
	}
}

// TestBackwardAddsEachGradientOnce is the contract a G that carries state
// between steps rests on (Param.CarryGrad): every layer with parameters
// adds each element's batch gradient to G with a single add, so Backward
// into a G prefilled with R leaves exactly R[i] + (Backward into a zeroed
// G)[i], bit for bit — −0 residuals, ±0 products and outputs whose every
// sample's dout is 0 included (R = −0 there must end at +0, as −0 + +0
// does). Linear runs at batch 4 (its register path), 3 and 7 (its tile
// path, with a remainder) and with one sample's dout zeroed, at widths on
// both sides of its 256-element tile.
func TestBackwardAddsEachGradientOnce(t *testing.T) {
	type layerCase struct {
		name  string
		layer Layer
		x     []int
		dead  int // an output channel whose dout is zeroed for every sample
	}
	rng := tensor.NewRNG(9)
	var cases []layerCase
	for _, n := range []int{4, 3, 7} {
		for _, in := range []int{48, 300} {
			cases = append(cases, layerCase{fmt.Sprintf("linear/%dx%d", n, in), NewLinear("l", in, 12, rng), []int{n, in}, 5})
		}
	}
	cases = append(cases,
		layerCase{"conv", NewConv2D("c", 3, 4, 3, 1, 1, rng), []int{2, 3, 6, 6}, 2},
		layerCase{"conv/stride", NewConv2D("c", 2, 3, 3, 2, 1, rng), []int{3, 2, 7, 7}, 1},
		layerCase{"bn1d", NewBatchNorm1D("b", 9), []int{5, 9}, 4},
		layerCase{"bn2d", NewBatchNorm2D("b", 3), []int{2, 3, 4, 4}, 0},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := tensor.New(c.x...)
			carryInput(x, rng)
			y := c.layer.Forward(x, true)
			dout := tensor.New(y.Shape()...)
			carryInput(dout, rng)
			zeroOutput(dout, c.dead)
			if c.x[0] == 4 && len(c.x) == 2 { // one more Linear case: a sample with no gradient at all
				clear(dout.Data()[dout.Len()/4 : dout.Len()/2])
			}
			params := c.layer.Params()
			for _, p := range params {
				p.G.Zero()
			}
			c.layer.Backward(dout)
			fresh := make([][]float32, len(params))
			for k, p := range params {
				fresh[k] = append([]float32(nil), p.G.Data()...)
				tensor.FillNormal(p.G, 1, rng)
				for i := range p.G.Data() {
					if i%3 == 0 {
						p.G.Data()[i] = negZero
					}
				}
			}
			resid := make([][]float32, len(params))
			for k, p := range params {
				resid[k] = append([]float32(nil), p.G.Data()...)
			}
			c.layer.Backward(dout)
			for k, p := range params {
				for i, got := range p.G.Data() {
					if want := resid[k][i] + fresh[k][i]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s[%d]: backward into R = %x gave %x, want R + g = %x (g = %x)",
							p.Name, i, math.Float32bits(resid[k][i]), math.Float32bits(got), math.Float32bits(want), math.Float32bits(fresh[k][i]))
					}
				}
			}
		})
	}
}

// refLinearBackward is the row-major Linear backward the output-major one
// replaced: sample by sample, each non-zero dout's products accumulated
// straight into a zeroed G.
func refLinearBackward(l *Linear, x, dout *tensor.Tensor) (gw, gb, dx []float32) {
	n := x.Shape()[0]
	gw, gb, dx = make([]float32, l.in*l.out), make([]float32, l.out), make([]float32, n*l.in)
	xd, wd, dd := x.Data(), l.Weight.W.Data(), dout.Data()
	for r := 0; r < n; r++ {
		for o := 0; o < l.out; o++ {
			g := dd[r*l.out+o]
			if g == 0 {
				continue
			}
			gb[o] += g
			for i := 0; i < l.in; i++ {
				gw[o*l.in+i] += g * xd[r*l.in+i]
				dx[r*l.in+i] += g * wd[o*l.in+i]
			}
		}
	}
	return gw, gb, dx
}

// TestLinearBackwardMatchesRowMajor holds Linear's output-major backward
// into a zeroed G to the row-major accumulation, bit for bit: each sum is
// formed in the same sample order from the same +0, and dx over the
// outputs in the same order, so a worker's wires do not change with it.
func TestLinearBackwardMatchesRowMajor(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, n := range []int{1, 3, 4, 5, 8, 9} {
		for _, in := range []int{7, 256, 300, 600} {
			l := NewLinear("l", in, 6, rng)
			x := tensor.New(n, in)
			carryInput(x, rng)
			dout := tensor.New(n, 6)
			carryInput(dout, rng)
			l.Weight.G.Zero()
			l.Bias.G.Zero()
			l.Forward(x, true)
			dx := l.Backward(dout)
			gw, gb, wantDx := refLinearBackward(l, x, dout)
			for _, c := range []struct {
				name      string
				got, want []float32
			}{{"weight", l.Weight.G.Data(), gw}, {"bias", l.Bias.G.Data(), gb}, {"dx", dx.Data(), wantDx}} {
				if i := firstDiff(c.got, c.want); i >= 0 {
					t.Fatalf("n=%d in=%d: %s differs from the row-major reference at %d", n, in, c.name, i)
				}
			}
		}
	}
}

// TestZeroGradLeavesCarriedGAlone: ZeroGrad clears every G but one that
// carries state between steps.
func TestZeroGradLeavesCarriedGAlone(t *testing.T) {
	m := NewMLP(4, []int{3}, 2, 1)
	ps := m.Params()
	for _, p := range ps {
		p.G.Fill(1)
	}
	ps[0].CarryGrad()
	m.ZeroGrad()
	for k, p := range ps {
		want := float32(0)
		if k == 0 {
			want = 1
		}
		for i, v := range p.G.Data() {
			if v != want {
				t.Fatalf("%s[%d] = %v after ZeroGrad, want %v", p.Name, i, v, want)
			}
		}
	}
}
