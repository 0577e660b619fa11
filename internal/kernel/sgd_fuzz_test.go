package kernel_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/nn"
	"threelc/internal/opt"
	"threelc/internal/tensor"
)

// This file is an external test package because its oracle for the
// delta-writing sweep is package opt, which imports package kernel.

// nanClassEqual is the tier contract's float comparison: bit-identical, or
// NaN on both sides (see the internal test package's helper of the same
// name).
func nanClassEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i, false
		}
	}
	return 0, true
}

// sgdWithVelocity returns an optimizer at step 0 whose learning rate,
// momentum and weight decay are exactly the given float32 values and whose
// velocity for parameter "p" is v, installed the only way arbitrary bits
// can be: through RestoreState.
func sgdWithVelocity(t *testing.T, v []float32, wd, mom, lr float32) *opt.SGD {
	t.Helper()
	o := opt.NewSGD(opt.SGDConfig{BaseLR: float64(lr), Momentum: float64(mom), WeightDecay: float64(wd), Workers: 1, TotalSteps: 1})
	le := binary.LittleEndian
	blob := le.AppendUint32(le.AppendUint64(nil, 0), 1)
	blob = append(le.AppendUint16(blob, 1), 'p')
	blob = kernel.AppendRaw(le.AppendUint32(blob, uint32(len(v))), v)
	if err := o.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	return o
}

// velocityOf reads parameter "p"'s velocity back out of o's state blob.
func velocityOf(o *opt.SGD, n int) []float32 {
	blob := o.AppendState(nil)
	v := make([]float32, n)
	kernel.RawGet(v, blob[len(blob)-4*n:])
	return v
}

// FuzzFusedSGDStep is the differential fuzz target behind the fused SGD
// sweep's tier contract, into each of its sinks: for arbitrary stream
// contents (including NaN/Inf bit patterns, −0 and denormals), arbitrary
// coefficient bit patterns and every tail length the input allows,
//
//   - into an Acc sink the sweep must, on each tier, with no record and
//     with one whose every block is live (which records the block maxima),
//     leave weights, velocity and accumulator bit-identical to the scalar
//     tier's record-free sweep (up to NaN payload class) and return the
//     bit-identical max|acc|, which is never NaN;
//   - into a Delta sink it must, on each tier and under both records,
//     leave weights, velocity and deltas bit-identical to the staged
//     reference — the averaged gradient materialized in p.G, then
//     opt.ApplyWithDelta — over a delta buffer that starts out stale, and
//     so must opt.ApplyFusedStep, which drives it as the parameter server
//     does and must not touch p.G; into a Raw sink (one byte into its
//     wire) it must leave the same weights and velocity and write the
//     bytes AppendRaw makes of that delta.
func FuzzFusedSGDStep(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0, 0, 0x80, 0x3f}, 16), uint32(0x3f000000), uint32(0x38d1b717), uint32(0x3f666666), uint32(0x3d23d70a))
	f.Add(bytes.Repeat([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0}, 11), uint32(0x3f800000), uint32(0), uint32(0), uint32(0x3f800000)) // NaN, −0, denormal
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0x7f, 0x7f}, 37), uint32(0x7f800000), uint32(0xff800000), uint32(0x7fc00000), uint32(0x00000001))
	// w = 1, v = 0.5, gs = −0.25 and a fourth buffer holding 3 over two vector
	// blocks and a tail of three: ordinary values, so a delta folded into what
	// the buffer held instead of stored over it cannot hide behind a NaN.
	f.Add(bytes.Repeat([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x3f, 0, 0, 0x80, 0xbe, 0, 0, 0x40, 0x40}, 19), uint32(0x3f000000), uint32(0x38d1b717), uint32(0x3f666666), uint32(0x3d23d70a))

	f.Fuzz(func(t *testing.T, data []byte, gscaleBits, wdBits, momBits, lrBits uint32) {
		n := len(data) / 16
		if n > 1<<12 {
			return
		}
		gscale, wd := math.Float32frombits(gscaleBits), math.Float32frombits(wdBits)
		mom, lr := math.Float32frombits(momBits), math.Float32frombits(lrBits)
		// Four interleaved streams so every byte of the input matters: w,
		// v, gs, and what the fourth buffer (acc or delta) holds on entry.
		var src [4][]float32
		for s := range src {
			src[s] = make([]float32, n)
			for i := range src[s] {
				src[s][i] = math.Float32frombits(binary.LittleEndian.Uint32(data[16*i+4*s:]))
			}
		}
		clone := func() (c [4][]float32) {
			for s := range c {
				c[s] = append([]float32(nil), src[s]...)
			}
			return c
		}
		prev := kernel.ActiveTier()
		defer kernel.SetTier(prev)

		kernel.SetTier(kernel.TierScalar)
		ref := clone()
		var none *kernel.Blocks
		all := new(kernel.Blocks)
		all.Reset()
		all.Mark(n)
		records := []*kernel.Blocks{none, all}
		wantM := none.SGDStep(ref[0], ref[1], ref[2], kernel.Sink{Acc: ref[3]}, gscale, wd, mom, lr)
		for _, tier := range kernel.AvailableTiers() {
			kernel.SetTier(tier)
			for _, x := range records {
				got := clone()
				gotM := x.SGDStep(got[0], got[1], got[2], kernel.Sink{Acc: got[3]}, gscale, wd, mom, lr)
				if math.Float32bits(gotM) != math.Float32bits(wantM) || gotM != gotM {
					t.Fatalf("tier %v n=%d recorded=%v: max|acc| %x != scalar %x", tier, n, x != nil, math.Float32bits(gotM), math.Float32bits(wantM))
				}
				for s, name := range []string{"w", "v", "gs", "acc"} {
					if i, ok := nanClassEqual(got[s], ref[s]); !ok {
						t.Fatalf("tier %v n=%d recorded=%v: %s differs at %d: %x vs %x", tier, n, x != nil, name, i,
							math.Float32bits(got[s][i]), math.Float32bits(ref[s][i]))
					}
				}
			}
		}

		if n == 0 {
			return
		}
		// The staged reference: average into p.G, then ApplyWithDelta.
		staged := clone()
		avg := make([]float32, n)
		for i, g := range staged[2] {
			avg[i] = g * gscale
		}
		stagedOpt := sgdWithVelocity(t, staged[1], wd, mom, lr)
		stagedOpt.ApplyWithDelta(
			[]*nn.Param{{Name: "p", W: tensor.FromSlice(staged[0], n), G: tensor.FromSlice(avg, n)}},
			[]*tensor.Tensor{tensor.FromSlice(staged[3], n)})
		wantV := velocityOf(stagedOpt, n)
		for _, tier := range kernel.AvailableTiers() {
			kernel.SetTier(tier)
			for _, x := range records {
				got := clone()
				x.SGDStep(got[0], got[1], got[2], kernel.Sink{Delta: got[3]}, gscale, wd, mom, lr)
				// The Raw sink from the same start: the Delta sink's delta, as
				// AppendRaw writes it behind a scheme byte.
				rw := clone()
				wire := make([]byte, 1+4*n)
				x.SGDStep(rw[0], rw[1], rw[2], kernel.Sink{Raw: wire[1:]}, gscale, wd, mom, lr)
				if want := kernel.AppendRaw([]byte{0}, got[3]); !bytes.Equal(wire, want) {
					t.Fatalf("tier %v n=%d recorded=%v: Raw sink got % x, AppendRaw of the Delta sink's delta % x", tier, n, x != nil, wire, want)
				}
				for _, c := range []struct {
					name      string
					got, want []float32
				}{
					{"w", got[0], staged[0]}, {"v", got[1], wantV}, {"gs", got[2], src[2]}, {"delta", got[3], staged[3]},
					{"Raw sink w", rw[0], staged[0]}, {"Raw sink v", rw[1], wantV},
				} {
					if i, ok := nanClassEqual(c.got, c.want); !ok {
						t.Fatalf("tier %v n=%d recorded=%v: %s differs from ApplyWithDelta at %d: %x vs %x", tier, n, x != nil, c.name, i,
							math.Float32bits(c.got[i]), math.Float32bits(c.want[i]))
					}
				}
			}

			// The Delta sink as the parameter server drives it.
			got := clone()
			o := sgdWithVelocity(t, got[1], wd, mom, lr)
			untouched := append([]float32(nil), src[3]...) // any bits will do for p.G
			p := &nn.Param{Name: "p", W: tensor.FromSlice(got[0], n), G: tensor.FromSlice(untouched, n)}
			o.ApplyFusedStep([]*nn.Param{p}, func(int) ([]float32, float32, *kernel.Blocks, kernel.Sink) {
				return got[2], gscale, nil, kernel.Sink{Delta: got[3]}
			}, make([]float32, 1))
			for _, c := range []struct {
				name      string
				got, want []float32
			}{
				{"w", got[0], staged[0]}, {"v", velocityOf(o, n), wantV}, {"delta", got[3], staged[3]},
			} {
				if i, ok := nanClassEqual(c.got, c.want); !ok {
					t.Fatalf("tier %v n=%d: ApplyFusedStep: %s differs from ApplyWithDelta at %d: %x vs %x", tier, n, c.name, i,
						math.Float32bits(c.got[i]), math.Float32bits(c.want[i]))
				}
			}
			for i := range untouched {
				if math.Float32bits(untouched[i]) != math.Float32bits(src[3][i]) {
					t.Fatalf("tier %v n=%d: ApplyFusedStep wrote p.G[%d]", tier, n, i)
				}
			}
			if o.Step() != 1 {
				t.Fatalf("tier %v: ApplyFusedStep left the schedule at step %d, want 1", tier, o.Step())
			}
		}
	})
}
