package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// livePush is one push of FuzzLiveSumVsDense: its wire kind (ctl&7 picks
// one of the liveKinds) and the one cluster of values its input holds.
type livePush struct {
	kind     int
	off, run int
	v        float32
}

// liveKinds are the wires a live-tracked sum is fed: 3LC with and without
// zero-run encoding, a 3LC wire whose scale is replaced by the fuzzed bits
// (±0 with non-zero digits, NaN, ±Inf, anything), raw, packed, empty, and
// a 3LC or (for an odd run length) raw wire cut one byte short.
var liveKinds = []string{"3lc", "3lc-nozre", "3lc-m", "raw", "packed", "empty", "malformed", "3lc-m"}

// FuzzLiveSumVsDense is the differential fuzz target behind the record of
// a gradient sum (kernel.Blocks): over three steps of one to three pushes
// each, decode-adding into a sum the record's stamps track, never zeroed
// (DecompressAddLive), sweeping it (Blocks.SGDStep into an Acc sink and
// into a Delta sink) and encoding the pull through the same record
// (CompressPreAccumulated), as ps.Job does, must leave the weights,
// velocity, accumulator, delta, max|acc| and block maxima bit-identical to
// the dense reference — zero the sum, DecompressAddInto every push, sweep
// under a record whose every block is live — under every kernel tier. The
// block maxima are compared through what the pull's encode does with
// them: the same wire, residual and elements read. A malformed push must
// fail on both sides and leave the record as it was: the sweep reads the
// same elements of the sum as a run that never saw the push. The input is
// records of (kind, offset, run length, value) into tensors of up to six
// blocks, so n need not be a multiple of the block or the group, and
// one-block tensors occur.
func FuzzLiveSumVsDense(f *testing.F) {
	rec := func(ctl byte, off uint16, run uint8, bits uint32) []byte {
		r := binary.LittleEndian.AppendUint16([]byte{ctl}, off)
		return binary.LittleEndian.AppendUint32(append(r, run), bits)
	}
	cat := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	const be = kernel.BlockElems
	one := uint32(0x3f800000)
	// Clustered 3LC pushes, two per step, into four blocks and a tail.
	f.Add(cat([]byte{1}, rec(0, 2*be+17, 200, one), rec(0, 40, 9, 0xbf000000),
		[]byte{1}, rec(0, 2*be+17, 200, one), rec(1, 3*be+5, 30, one)), uint16(4*be+2), uint32(0))
	// A one-block tensor: raw, then 3LC, then the empty wire.
	f.Add(cat([]byte{2}, rec(3, 3, 7, 0x80000000), rec(0, 100, 50, one), rec(5, 0, 0, 0)), uint16(1003), uint32(0))
	// Packed after 3LC, past the group and block edges; then a malformed
	// wire between two good ones.
	f.Add(cat([]byte{1}, rec(0, be-2, 4, one), rec(4, 0, 255, 0x3e800000),
		[]byte{2}, rec(0, 5, 3, one), rec(6, be+1, 9, one), rec(1, 2*be, 9, 0xbf800000)), uint16(3*be+3), uint32(0))
	// The scale replaced: −0 and +0 with non-zero digits, NaN, +Inf, −Inf.
	for _, m := range []uint32{0x80000000, 0, 0x7fc00000, 0x7f800000, 0xff800000} {
		f.Add(cat([]byte{1}, rec(0, 10, 40, one), rec(2, 4*be+3, 20, one), []byte{0}, rec(7, be+9, 5, one)), uint16(5*be+1), m)
	}
	// Six blocks, every push kind in one step.
	f.Add(cat([]byte{2}, rec(0, 0, 255, one), rec(1, 3*be-3, 6, one), rec(3, 5*be, 100, 0x40000000),
		[]byte{2}, rec(4, 0, 0, one), rec(0, 6*be-1, 1, one), rec(6, 0, 10, one)), uint16(6*be-1), uint32(0))

	f.Fuzz(fuzzLiveSumBody)
}

func fuzzLiveSumBody(t *testing.T, data []byte, nRaw uint16, mBits uint32) {
	n := int(nRaw)%(6*kernel.BlockElems) + 1
	var steps [][]livePush
	for len(steps) < 3 && len(data) > 0 {
		k := int(data[0])%3 + 1
		data = data[1:]
		var step []livePush
		for ; k > 0 && len(data) >= 8; data, k = data[8:], k-1 {
			step = append(step, livePush{
				kind: int(data[0] & 7),
				off:  int(binary.LittleEndian.Uint16(data[1:])) % n,
				run:  int(data[3]),
				v:    math.Float32frombits(binary.LittleEndian.Uint32(data[4:])),
			})
		}
		if len(step) == 0 {
			break
		}
		steps = append(steps, step)
	}
	if len(steps) == 0 {
		return
	}
	prev := kernel.ActiveTier()
	defer kernel.SetTier(prev)
	for _, tier := range kernel.AvailableTiers() {
		kernel.SetTier(tier)
		checkLiveSum(t, fmt.Sprintf("tier %v", tier), n, steps, mBits)
	}
}

// liveWires builds each step's wires from its pushes: one context per push
// slot and kind, so error feedback runs across steps as on a worker.
func liveWires(n int, steps [][]livePush, mBits uint32) [][][]byte {
	shape := []int{n}
	ctxs := map[[2]int]Compressor{}
	out := make([][][]byte, len(steps))
	for s, step := range steps {
		for slot, p := range step {
			in := tensor.New(n)
			for i := p.off; i < min(p.off+max(p.run, 1), n); i++ {
				in.Data()[i] = p.v
			}
			key := [2]int{slot, p.kind}
			if ctxs[key] == nil {
				switch liveKinds[p.kind] {
				case "3lc-nozre":
					ctxs[key] = New(SchemeThreeLC, shape, Options{Sparsity: 1.0, ZeroRun: false})
				case "raw":
					ctxs[key] = New(SchemeNone, shape, Options{})
				case "packed":
					ctxs[key] = NewExempt(SchemeThreeLC, shape)
				default:
					ctxs[key] = New(SchemeThreeLC, shape, Options{Sparsity: 1.75, ZeroRun: true})
				}
			}
			if liveKinds[p.kind] == "malformed" && p.run%2 == 1 {
				key[1] = -1 // a raw wire cut short
				if ctxs[key] == nil {
					ctxs[key] = New(SchemeNone, shape, Options{})
				}
			}
			wire := ctxs[key].CompressInto(in, nil)
			switch liveKinds[p.kind] {
			case "3lc-m":
				binary.LittleEndian.PutUint32(wire[1:], mBits)
			case "empty":
				wire = nil
			case "malformed":
				wire = wire[:len(wire)-1]
			}
			out[s] = append(out[s], wire)
		}
	}
	return out
}

// liveSide is one side of checkLiveSum: a gradient sum and its record,
// the optimizer state the two sweeps step and the pull's 3LC context.
type liveSide struct {
	sum           *tensor.Tensor
	blk           kernel.Blocks
	dense         bool // the reference: the sum is zeroed, every block live
	pull          PreAccumulator
	w, v          []float32
	dw, dv, delta []float32
}

func newLiveSide(n int, dense bool) *liveSide {
	s := &liveSide{sum: tensor.New(n), dense: dense}
	s.pull = New(SchemeThreeLC, []int{n}, Options{Sparsity: 1.75, ZeroRun: true}).(PreAccumulator)
	for _, b := range []*[]float32{&s.w, &s.v, &s.dw, &s.dv, &s.delta} {
		*b = make([]float32, n)
	}
	for i := range s.w {
		s.w[i] = float32(i%13) * 0.125
		s.dw[i] = s.w[i]
	}
	if !dense {
		// Stale memory the record must never let the sweep read.
		for i := range s.sum.Data() {
			s.sum.Data()[i] = float32(math.NaN())
		}
	}
	return s
}

// begin starts a step's sum.
func (s *liveSide) begin() {
	s.blk.Reset()
	if s.dense {
		s.sum.Zero()
		s.blk.Mark(s.sum.Len())
	}
}

// add takes one push into the sum.
func (s *liveSide) add(wire []byte) error {
	if s.dense {
		return DecompressAddInto(wire, s.sum, 1)
	}
	return DecompressAddLive(wire, s.sum, &s.blk)
}

// sweep runs both sweeps over the step's sum, and the pull's encode over
// the accumulator, returning max|acc|, the wire, and the elements the
// sweeps read of the sum and the encode read of the accumulator.
func (s *liveSide) sweep(gscale float32) (m float32, wire []byte, gradRead, encRead int) {
	kernel.PassHook = func(pass string, elems int) {
		switch pass {
		case "fused-sgd-step":
			gradRead += elems
		case "quantize+pack":
			encRead += elems
		}
	}
	defer func() { kernel.PassHook = nil }()
	m = s.blk.SGDStep(s.w, s.v, s.sum.Data(), kernel.Sink{Acc: s.pull.AccData()}, gscale, 1e-4, 0.9, 0.5)
	s.blk.SGDStep(s.dw, s.dv, s.sum.Data(), kernel.Sink{Delta: s.delta}, gscale, 1e-4, 0.9, 0.5)
	wire = s.pull.CompressPreAccumulated(&s.blk, m, nil)
	return m, wire, gradRead, encRead
}

// checkLiveSum runs steps through a dense reference, a live-tracked sum,
// and a live-tracked sum that is never handed the pushes both reject.
func checkLiveSum(t *testing.T, name string, n int, steps [][]livePush, mBits uint32) {
	t.Helper()
	wires := liveWires(n, steps, mBits)
	ref := newLiveSide(n, true)
	got := newLiveSide(n, false)
	clean := newLiveSide(n, false)
	for s, step := range wires {
		ref.begin()
		got.begin()
		clean.begin()
		for p, wire := range step {
			errRef := ref.add(wire)
			err := got.add(wire)
			if (err == nil) != (errRef == nil) {
				t.Fatalf("%s step %d push %d (%s): live err=%v, dense err=%v", name, s, p, liveKinds[steps[s][p].kind], err, errRef)
			}
			if err == nil {
				if err := clean.add(wire); err != nil {
					t.Fatalf("%s step %d push %d: %v", name, s, p, err)
				}
			}
		}
		gscale := 1 / float32(len(step))
		mRef, wireRef, _, encRef := ref.sweep(gscale)
		m, wire, gradRead, enc := got.sweep(gscale)
		_, _, cleanRead, _ := clean.sweep(gscale)
		if math.Float32bits(m) != math.Float32bits(mRef) {
			t.Fatalf("%s step %d: max|acc| %x, dense %x", name, s, math.Float32bits(m), math.Float32bits(mRef))
		}
		for _, c := range []struct {
			name      string
			got, want []float32
		}{
			{"w", got.w, ref.w}, {"v", got.v, ref.v}, {"acc", got.pull.AccData(), ref.pull.AccData()},
			{"delta-form w", got.dw, ref.dw}, {"delta-form v", got.dv, ref.dv}, {"delta", got.delta, ref.delta},
		} {
			for i := range c.want {
				g, w := c.got[i], c.want[i]
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s step %d: %s[%d] %x, dense %x", name, s, c.name, i, math.Float32bits(c.got[i]), math.Float32bits(c.want[i]))
				}
			}
		}
		if !bytes.Equal(wire, wireRef) || enc != encRef {
			t.Fatalf("%s step %d: pull encode over the live side's record read %d elements into %d bytes, dense %d into %d",
				name, s, enc, len(wire), encRef, len(wireRef))
		}
		if gradRead != cleanRead {
			t.Fatalf("%s step %d: the sweeps read %d elements of the sum, %d without the rejected pushes", name, s, gradRead, cleanRead)
		}
	}
}
