package compress

import (
	"testing"

	"threelc/internal/tensor"
)

// fuzzSchemes is the corpus configuration: at least one entry per
// registered wire scheme (TestFuzzCorpusCoversEveryRegisteredDecoder
// enforces this), so corrupt-wire fuzzing exercises every decoder in the
// registry. LocalSteps uses Interval 1 so its wire is non-empty.
var fuzzSchemes = []struct {
	s Scheme
	o Options
}{
	{SchemeNone, Options{}},
	{SchemeInt8, Options{}},
	{SchemeThreeLC, Options{Sparsity: 1.5, ZeroRun: true}},
	{SchemeThreeLC, Options{Sparsity: 1.0, ZeroRun: false}},
	{SchemeStoch3QE, Options{Seed: 1}},
	{SchemeMQE1Bit, Options{}},
	{SchemeTopK, Options{Fraction: 0.3, Seed: 1}},
	{SchemeLocalSteps, Options{Interval: 1}},
	// The exempt tensor of a compressing design (newContext's NewExempt).
	{SchemePacked32, Options{}},
}

// newContext is New for every corpus entry: SchemePacked32 is not a design
// New builds, its context comes from NewExempt.
func newContext(s Scheme, shape []int, o Options) Compressor {
	if s == SchemePacked32 {
		return NewExempt(SchemeThreeLC, shape)
	}
	return New(s, shape, o)
}

// TestFuzzCorpusCoversEveryRegisteredDecoder fails when a codec registers
// a decoder that the corrupt-wire corpus does not reach — adding a scheme
// without extending the fuzz corpus is a test gap, not an option.
func TestFuzzCorpusCoversEveryRegisteredDecoder(t *testing.T) {
	covered := map[Scheme]bool{}
	for _, sc := range fuzzSchemes {
		covered[sc.s] = true
	}
	for _, s := range RegisteredSchemes() {
		if !covered[s] {
			t.Errorf("registered scheme %v (byte %d) has no fuzz-corpus entry", s, uint8(s))
		}
	}
}

// TestDecompressNeverPanicsOnCorruptWire mutates valid wire messages and
// feeds raw noise to the decoder: a decoder operating on untrusted network
// bytes must return errors, never panic. (testing.F-style fuzzing without
// the fuzz engine, so it runs in ordinary `go test`.) Unknown scheme bytes
// — anything the registry has no decoder for — must error cleanly too,
// which the random-noise trials and first-byte mutations exercise.
func TestDecompressNeverPanicsOnCorruptWire(t *testing.T) {
	shape := []int{257}
	rng := tensor.NewRNG(12345)
	in := tensor.New(257)
	tensor.FillNormal(in, 0.1, rng)

	decode := func(wire []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decompress panicked on corrupt wire: %v", r)
			}
		}()
		out, err := Decompress(wire, shape)
		_ = out
		_ = err // errors are fine; panics are not
	}

	for _, sc := range fuzzSchemes {
		valid := newContext(sc.s, shape, sc.o).CompressInto(in, nil)

		// Single-byte mutations at every position.
		for pos := 0; pos < len(valid); pos++ {
			for _, delta := range []byte{1, 0x80, 0xff} {
				mut := append([]byte(nil), valid...)
				mut[pos] ^= delta
				decode(mut)
			}
		}
		// Truncations.
		for cut := 0; cut < len(valid); cut += 1 + len(valid)/37 {
			decode(valid[:cut])
		}
		// Extensions.
		decode(append(append([]byte(nil), valid...), 0xde, 0xad))

		// Forge every possible scheme byte onto this payload, so each
		// registered decoder also sees payloads shaped for other schemes.
		if len(valid) > 0 {
			for b := 0; b < 256; b++ {
				mut := append([]byte(nil), valid...)
				mut[0] = byte(b)
				decode(mut)
			}
		}
	}

	// Raw random noise.
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(400)
		noise := make([]byte, n)
		for i := range noise {
			noise[i] = byte(rng.Uint64())
		}
		decode(noise)
	}
}

// TestDecompressIntoWrongShapeNeverPanics checks decoding a valid wire
// into a mismatched destination returns an error.
func TestDecompressIntoWrongShapeNeverPanics(t *testing.T) {
	rng := tensor.NewRNG(6)
	in := tensor.New(100)
	tensor.FillNormal(in, 0.1, rng)
	for _, sc := range []struct {
		s Scheme
		o Options
	}{
		{SchemeNone, Options{}},
		{SchemeInt8, Options{}},
		{SchemeThreeLC, Options{Sparsity: 1.5, ZeroRun: true}},
		{SchemeMQE1Bit, Options{}},
		{SchemeTopK, Options{Fraction: 0.3, Seed: 1}},
		{SchemePacked32, Options{}},
	} {
		wire := newContext(sc.s, []int{100}, sc.o).CompressInto(in, nil)
		// Shapes inside the same padding bucket (e.g. 99 vs 100 for the
		// 5-per-byte quartic format) are indistinguishable by design —
		// the wire is context-keyed and does not carry the length. Test
		// only shapes that change the expected payload size.
		for _, wrong := range []int{1, 50, 500} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("scheme %v shape %d: panic %v", sc.s, wrong, r)
					}
				}()
				if _, err := Decompress(wire, []int{wrong}); err == nil && sc.s != SchemeTopK {
					// TopK with a larger shape can coincidentally parse;
					// all other schemes must notice the size mismatch.
					t.Errorf("scheme %v: decode into wrong shape %d succeeded", sc.s, wrong)
				}
			}()
		}
	}
}
