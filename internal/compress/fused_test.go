package compress

import (
	"bytes"
	"encoding/binary"
	"testing"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// TestCompressorPassCounts verifies — through the kernel pass-counting
// test double — that the whole codec path, not just the kernels in
// isolation, sweeps tensor memory exactly twice per compress and exactly
// once per decompress. A regression that reintroduces a staged sweep
// (separate MaxAbs, a dequantization tensor, a zero-run scratch pass)
// fails here.
//
// It also pins the block index at the codec level, on the push
// (CompressInto) and on the server's pull
// (kernel.BlockMax.FusedSGDStep recording the index as it folds the delta,
// then CompressPreAccumulated): still two passes, and the encode pass
// reads under 5 % of a 1M-element state change whose non-zero digits
// cluster and all of one whose digits are scattered. The pull's wire must
// match CompressInto of the same delta. On the server's side of the push
// (DecompressAddLive into a recorded gradient sum, then the sweep reading
// it) the decode-add and the sweep touch as little — and all of the sum
// under a NaN scale.
func TestCompressorPassCounts(t *testing.T) {
	type pass struct {
		name  string
		elems int
	}
	var passes []pass
	kernel.PassHook = func(name string, elems int) { passes = append(passes, pass{name, elems}) }
	defer func() { kernel.PassHook = nil }()

	const n = 1003
	in := randTensor(77, n, 0.01)
	out := tensor.New(n)

	for _, tc := range []struct {
		name string
		s    Scheme
		o    Options
	}{
		{"3lc-zre", SchemeThreeLC, Options{Sparsity: 1.75, ZeroRun: true}},
		{"3lc-nozre", SchemeThreeLC, Options{Sparsity: 1.0, ZeroRun: false}},
		{"stoch3", SchemeStoch3QE, Options{Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := New(tc.s, []int{n}, tc.o)

			passes = nil
			wire := ctx.CompressInto(in, nil)
			if len(passes) != 2 {
				t.Fatalf("CompressInto swept tensor memory %d times (%v), want exactly 2", len(passes), passes)
			}

			passes = nil
			if err := DecompressInto(wire, out); err != nil {
				t.Fatal(err)
			}
			if len(passes) != 1 {
				t.Fatalf("DecompressInto swept tensor memory %d times (%v), want exactly 1", len(passes), passes)
			}
		})
	}

	const big = 1 << 20
	clustered, scattered := tensor.New(big), tensor.New(big)
	rng := tensor.NewRNG(8)
	for r := 0; r < 8; r++ { // 8 rows of 1 024 non-zero gradients
		off := rng.Intn(big - 1024)
		for i := off; i < off+1024; i++ {
			clustered.Data()[i] = float32(rng.Norm() * 0.01)
		}
	}
	tensor.FillUniform(scattered, -1, 1, rng) // 1/16 of the digits non-zero at s = 1.75
	check := func(t *testing.T, label string, minRead, maxRead int) {
		t.Helper()
		if len(passes) != 2 || passes[0].elems != big {
			t.Fatalf("%s: passes %v, want 2 with the first over all %d elements", label, passes, big)
		}
		if read := passes[1].elems; read < minRead || read > maxRead {
			t.Fatalf("%s: encode pass read %d of %d elements, want %d..%d", label, read, big, minRead, maxRead)
		}
	}
	for _, tc := range []struct {
		name             string
		in               *tensor.Tensor
		minRead, maxRead int
	}{
		{"clustered", clustered, 1, big/20 - 1},
		{"scattered", scattered, big, big},
	} {
		t.Run("block-index/"+tc.name, func(t *testing.T) {
			opts := Options{Sparsity: 1.75, ZeroRun: true}
			passes = nil
			push := New(SchemeThreeLC, []int{big}, opts).CompressInto(tc.in, nil)
			check(t, "push", tc.minRead, tc.maxRead)

			// The push as the server takes it: decode-added into a recorded
			// gradient sum, which the optimizer sweep then reads. Both touch
			// the blocks a literal group lands in — all of them under a NaN
			// scale.
			nanPush := append([]byte(nil), push...)
			binary.LittleEndian.PutUint32(nanPush[1:], 0x7fc00000)
			for _, w := range []struct {
				label            string
				wire             []byte
				minRead, maxRead int
			}{{"push sum", push, tc.minRead, tc.maxRead}, {"push sum, NaN scale", nanPush, big, big}} {
				var live kernel.LiveBlocks
				live.Reset()
				sum := tensor.New(big)
				passes = nil
				if err := DecompressAddLive(w.wire, sum, &live); err != nil {
					t.Fatal(err)
				}
				live.FusedSGDStep(nil, make([]float32, big), make([]float32, big), sum.Data(), make([]float32, big), 0.5, 0, 0, 1)
				if len(passes) != 2 {
					t.Fatalf("%s: passes %v, want the decode-add and the sweep", w.label, passes)
				}
				for _, p := range passes {
					if p.elems < w.minRead || p.elems > w.maxRead {
						t.Fatalf("%s: %s touched %d of %d elements, want %d..%d", w.label, p.name, p.elems, big, w.minRead, w.maxRead)
					}
				}
			}

			// The pull: w = 0, v = 0, gscale = 1, lr = 1 make the delta −gs.
			pa := New(SchemeThreeLC, []int{big}, opts).(PreAccumulator)
			acc, blk := pa.AccData()
			passes = nil
			m := blk.FusedSGDStep(make([]float32, big), make([]float32, big), tc.in.Data(), acc, 1, 0, 0, 1)
			pull := pa.CompressPreAccumulated(m, nil)
			check(t, "pull", tc.minRead, tc.maxRead)
			delta := tensor.New(big)
			for i, g := range tc.in.Data() {
				delta.Data()[i] = -g
			}
			if want := New(SchemeThreeLC, []int{big}, opts).CompressInto(delta, nil); !bytes.Equal(pull, want) {
				t.Fatalf("pull wire (%d B) != CompressInto of the delta (%d B)", len(pull), len(want))
			}
		})
	}
}
