package compress

import (
	"fmt"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// TestThreeLCTelescopes checks §3.1's error-accumulation identity on its
// own terms, with no staged reference: after T steps, what went into a 3LC
// context minus what its wires decode to is what its buffer still holds,
//
//	Σ_t in_t − Σ_t DecompressInto(wire_t) = residual_T,
//
// summed in float64, per element. Decoding M·q is exact, so the two sides
// part only by float32 rounding: on the push each step rounds twice (pass
// 1's acc + in, pass 2's acc − M·q), each by at most ulp(M)/2, where M
// bounds every value those operations produce — the inputs, the residuals
// and the wire's scale, which is max|acc|·s ≥ max|acc| — so the drift is
// at most T·ulp(M). The pull (kernel.Blocks.SGDStep into an Acc sink, then
// CompressPreAccumulated consulting the same record) holds the identity
// with the model's own change for the inputs: w_T − w_0 − Σ_t
// DecompressInto(pull_t) = residual_T, with a third rounding a step — the
// delta w_new − w_old the sweep folds — so within 3/2·T·ulp(M), M now
// bounding the deltas too. The input is clustered, over a tensor of five
// blocks and a tail, so pass 2 both skips blocks and visits them.
func TestThreeLCTelescopes(t *testing.T) {
	const n, steps = 5*kernel.BlockElems + 37, 200
	prev := kernel.ActiveTier()
	defer kernel.SetTier(prev)
	for _, tier := range kernel.AvailableTiers() {
		kernel.SetTier(tier)
		for _, s := range []float64{1.00, 1.75} {
			for _, zre := range []bool{true, false} {
				o := Options{Sparsity: s, ZeroRun: zre}
				name := fmt.Sprintf("%v/s=%.2f/zre=%v", tier, s, zre)
				t.Run(name+"/push", func(t *testing.T) { checkPushTelescopes(t, n, steps, o) })
				t.Run(name+"/pull", func(t *testing.T) { checkPullTelescopes(t, n, steps, o) })
			}
		}
	}
}

// telescopeInput fills in with one step's clustered input: three runs of 200
// Gaussian values at offsets that move from step to step, zero elsewhere.
func telescopeInput(in *tensor.Tensor, rng *tensor.RNG) {
	in.Zero()
	d := in.Data()
	for r := 0; r < 3; r++ {
		off := rng.Intn(len(d) - 200)
		for i := off; i < off+200; i++ {
			d[i] = float32(rng.Norm() * 0.01)
		}
	}
}

// telescope is one side's running sums: Σ in (or the model's change) and
// Σ decoded, in float64, and the bound M on every float32 value rounded.
type telescope struct {
	in, sent []float64
	out      *tensor.Tensor
	m        float32
}

func newTelescope(n int) *telescope {
	return &telescope{in: make([]float64, n), sent: make([]float64, n), out: tensor.New(n)}
}

// bound raises M to cover vals.
func (tl *telescope) bound(vals []float32) {
	for _, v := range vals {
		tl.m = max(tl.m, float32(math.Abs(float64(v))))
	}
}

// decode adds wire's decoded values to Σ sent and its scale to M.
func (tl *telescope) decode(t *testing.T, wire []byte) {
	t.Helper()
	if err := DecompressInto(wire, tl.out); err != nil {
		t.Fatal(err)
	}
	tl.m = max(tl.m, float32(math.Abs(float64(getF32(wire[1:])))))
	for i, v := range tl.out.Data() {
		tl.sent[i] += float64(v)
	}
}

// check holds Σ in − Σ sent to the residual within k·step·ulp(M).
func (tl *telescope) check(t *testing.T, step int, resid []float32, k float64) {
	t.Helper()
	tl.bound(resid)
	tol := k * float64(step) * ulp32(tl.m)
	for i, r := range resid {
		if d := tl.in[i] - tl.sent[i] - float64(r); math.Abs(d) > tol {
			t.Fatalf("step %d element %d: Σ in − Σ sent − residual = %g, over %g·T·ulp(M) = %g (residual %g)", step, i, d, k, tol, r)
		}
	}
}

// ulp32 is the spacing of float32 values at |x|.
func ulp32(x float32) float64 {
	e := math.Float32bits(x) & 0x7f800000
	if e == 0 {
		return 0x1p-149
	}
	return float64(math.Float32frombits(e)) * 0x1p-23
}

func checkPushTelescopes(t *testing.T, n, steps int, o Options) {
	ctx := New(SchemeThreeLC, []int{n}, o)
	tl := newTelescope(n)
	rng := tensor.NewRNG(41)
	in := tensor.New(n)
	var wire []byte
	for step := 1; step <= steps; step++ {
		telescopeInput(in, rng)
		tl.bound(in.Data())
		for i, v := range in.Data() {
			tl.in[i] += float64(v)
		}
		wire = ctx.CompressInto(in, wire[:0])
		tl.decode(t, wire)
		tl.check(t, step, ctx.(PreAccumulator).AccData(), 1)
	}
}

func checkPullTelescopes(t *testing.T, n, steps int, o Options) {
	pa := New(SchemeThreeLC, []int{n}, o).(PreAccumulator)
	tl := newTelescope(n)
	rng := tensor.NewRNG(43)
	w, v, w0, old, delta := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w[i] = float32(rng.Norm() * 0.1)
	}
	copy(w0, w)
	gs := tensor.New(n)
	var blk kernel.Blocks
	var wire []byte
	for step := 1; step <= steps; step++ {
		telescopeInput(gs, rng)
		blk.Reset()
		blk.Mark(n)
		copy(old, w)
		m := blk.SGDStep(w, v, gs.Data(), kernel.Sink{Acc: pa.AccData()}, 0.5, 1e-4, 0.9, 0.1)
		for i := range delta {
			delta[i] = w[i] - old[i] // the float32 delta the sweep folded
		}
		tl.bound(delta)
		wire = pa.CompressPreAccumulated(&blk, m, wire[:0])
		tl.decode(t, wire)
		for i := range w {
			tl.in[i] = float64(w[i]) - float64(w0[i])
		}
		tl.check(t, step, pa.AccData(), 1.5)
	}
}
