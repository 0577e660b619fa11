package compress

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"threelc/internal/tensor"
)

// TestCompressIntoMatchesCompress drives two identically-seeded contexts
// per scheme — one through CompressInto into a fresh (nil) buffer, one
// through CompressInto with a recycled buffer — over several steps with
// evolving inputs, and asserts the wire bytes are identical at every step.
// The multi-step loop matters: it proves the scratch-buffer reuse does not
// leak state between steps (error accumulation, RNG draws, step counters).
func TestCompressIntoMatchesCompress(t *testing.T) {
	const n = 1003 // not a multiple of 5 or 8: exercises padding paths
	shape := []int{n}
	for _, sc := range fuzzSchemes {
		t.Run(sc.s.String(), func(t *testing.T) {
			fresh := newContext(sc.s, shape, sc.o)
			appendStyle := newContext(sc.s, shape, sc.o)
			rng := tensor.NewRNG(99)
			in := tensor.New(n)
			var buf []byte
			for step := 0; step < 8; step++ {
				tensor.FillNormal(in, 0.02, rng)
				want := fresh.CompressInto(in, nil)
				buf = appendStyle.CompressInto(in, buf[:0])
				if !bytes.Equal(want, buf) {
					t.Fatalf("step %d: CompressInto into a recycled buffer produced %d bytes, into nil %d", step, len(buf), len(want))
				}
				if len(buf) == 0 {
					continue // local-steps non-transmitting step
				}
				// And the wire still decodes correctly.
				out, err := Decompress(buf, shape)
				if err != nil {
					t.Fatalf("step %d: decode: %v", step, err)
				}
				if out.Len() != n {
					t.Fatalf("step %d: decoded %d elements", step, out.Len())
				}
			}
		})
	}
}

// TestCompressIntoPreservesPrefix checks the append contract: bytes
// already in dst stay untouched ahead of the new wire message.
func TestCompressIntoPreservesPrefix(t *testing.T) {
	rng := tensor.NewRNG(7)
	in := tensor.New(100)
	tensor.FillNormal(in, 0.1, rng)
	c := New(SchemeThreeLC, []int{100}, Options{Sparsity: 1.5, ZeroRun: true})
	prefix := []byte{0xCA, 0xFE}
	out := c.CompressInto(in, append([]byte(nil), prefix...))
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("prefix clobbered")
	}
	if _, err := Decompress(out[2:], []int{100}); err != nil {
		t.Fatalf("suffix does not decode: %v", err)
	}
}

// TestCompressIntoSteadyStateAllocs is the zero-allocation guarantee of
// the refactor, as a hard test rather than a benchmark eyeball: once
// buffers converge, a compress+decompress step allocates nothing, at any
// tensor size and any GOMAXPROCS.
func TestCompressIntoSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		s    Scheme
		o    Options
	}{
		{"float32", SchemeNone, Options{}},
		{"int8", SchemeInt8, Options{}},
		{"3lc-zre", SchemeThreeLC, Options{Sparsity: 1.75, ZeroRun: true}},
		{"3lc-nozre", SchemeThreeLC, Options{Sparsity: 1.0, ZeroRun: false}},
		{"mqe1bit", SchemeMQE1Bit, Options{}},
		{"packed", SchemePacked32, Options{}},
	}
	const n = 1 << 14
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := newContext(tc.s, []int{n}, tc.o)
			rng := tensor.NewRNG(5)
			in := tensor.New(n)
			tensor.FillNormal(in, 0.01, rng)
			out := tensor.New(n)
			var buf []byte
			// Warm up: let scratch capacities converge.
			for i := 0; i < 4; i++ {
				buf = ctx.CompressInto(in, buf[:0])
				if err := DecompressInto(buf, out); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				buf = ctx.CompressInto(in, buf[:0])
				if err := DecompressInto(buf, out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("steady-state compress+decompress allocates %.1f times/op, want 0", allocs)
			}
		})
	}
	// A large 3LC tensor with cores to spare: the codec must not fan out.
	// testing.AllocsPerRun pins GOMAXPROCS to 1, so this row counts the
	// process's mallocs around its steps itself. The runtime mallocs on
	// its own now and then (an OS thread for a woken P, its timer heap),
	// so the row takes the best of three windows: a codec allocation
	// recurs every step, in every window.
	t.Run("3lc-1M-gomaxprocs4", func(t *testing.T) {
		if raceDetector {
			t.Skip("the race detector allocates on its own")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		const big, steps = 1 << 20, 20
		ctx := New(SchemeThreeLC, []int{big}, Options{Sparsity: 1.75, ZeroRun: true})
		in := tensor.New(big)
		tensor.FillNormal(in, 0.01, tensor.NewRNG(5))
		sum := tensor.New(big)
		var buf []byte
		step := func() {
			buf = ctx.CompressInto(in, buf[:0])
			if err := DecompressAddInto(buf, sum, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			step()
		}
		best := uint64(math.MaxUint64)
		for w := 0; w < 3 && best > 0; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if best > 0 {
			t.Errorf("steady-state compress+decompress-add of %d elements at GOMAXPROCS 4 allocates %.1f times/step, want 0",
				big, float64(best)/steps)
		}
	})
}

// --- steady-state benchmarks (run with -benchmem) ---------------------------

// BenchmarkThreeLCCompressInto measures the steady-state per-step compress
// path with a recycled wire buffer: allocs/op must be 0.
func BenchmarkThreeLCCompressInto(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			ctx := New(SchemeThreeLC, []int{n}, Options{Sparsity: 1.75, ZeroRun: true})
			rng := tensor.NewRNG(5)
			in := tensor.New(n)
			tensor.FillNormal(in, 0.01, rng)
			buf := ctx.CompressInto(in, nil)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ctx.CompressInto(in, buf[:0])
			}
		})
	}
}

// BenchmarkThreeLCDecompressInto measures the matching pull path: decoding
// into a preallocated tensor with a pooled LUT, allocs/op 0.
func BenchmarkThreeLCDecompressInto(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			ctx := New(SchemeThreeLC, []int{n}, Options{Sparsity: 1.75, ZeroRun: true})
			rng := tensor.NewRNG(6)
			in := tensor.New(n)
			tensor.FillNormal(in, 0.01, rng)
			wire := ctx.CompressInto(in, nil)
			out := tensor.New(n)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecompressInto(wire, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressIntoAllSchemes covers the remaining codecs' append
// paths at one mid-size shape.
func BenchmarkCompressIntoAllSchemes(b *testing.B) {
	const n = 1 << 16
	cases := []struct {
		name string
		s    Scheme
		o    Options
	}{
		{"float32", SchemeNone, Options{}},
		{"int8", SchemeInt8, Options{}},
		{"stoch3", SchemeStoch3QE, Options{Seed: 1}},
		{"mqe1bit", SchemeMQE1Bit, Options{}},
		{"sparse25", SchemeTopK, Options{Fraction: 0.25, Seed: 1}},
		{"3lc-s1.75", SchemeThreeLC, Options{Sparsity: 1.75, ZeroRun: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ctx := New(tc.s, []int{n}, tc.o)
			rng := tensor.NewRNG(8)
			in := tensor.New(n)
			tensor.FillNormal(in, 0.01, rng)
			buf := ctx.CompressInto(in, nil)
			b.SetBytes(4 * int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ctx.CompressInto(in, buf[:0])
			}
			b.ReportMetric(float64(len(buf))*8/n, "bits/elem")
			if tc.s == SchemeThreeLC || tc.s == SchemeStoch3QE {
				// What §3.3's capped zero-run spelling would have taken.
				b.ReportMetric(float64(PaperWireLen(buf))*8/n, "paper-bits/elem")
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<17:
		return "128k"
	default:
		return "16k"
	}
}
