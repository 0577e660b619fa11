package compress

import (
	"testing"

	"threelc/internal/tensor"
)

// FuzzDecompressInto is the native fuzz entry point for the decoder
// registry (the deterministic corruption sweep in fuzz_test.go runs under
// plain `go test`; this target lets the fuzz engine search beyond it).
// Every registered decoder sits behind the first wire byte, so a single
// target covers the whole registry. Decoders operate on untrusted network
// bytes: any input may error, none may panic — in any destination shape,
// since a sharded tier can route a wire to a mismatched tensor slot.
func FuzzDecompressInto(f *testing.F) {
	shape := []int{257}
	rng := tensor.NewRNG(99)
	in := tensor.New(shape[0])
	tensor.FillNormal(in, 0.1, rng)
	for _, sc := range fuzzSchemes {
		f.Add(newContext(sc.s, shape, sc.o).CompressInto(in, nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	// The reserved scheme byte 8, the retired entropy stage: alone, over a
	// stored body (stage 0, the inner wire verbatim) and over a
	// Huffman-coded one (stage 1).
	f.Add([]byte{8})
	f.Add(append([]byte{8, 0}, newContext(SchemeThreeLC, shape, Options{Sparsity: 1.5, ZeroRun: true}).CompressInto(in, nil)...))
	f.Add([]byte{8, 1, 0xff, 0x01})
	// The reserved byte 7, the retired round-robin exchange, over its old
	// top-k bitmap layout.
	f.Add(append([]byte{7}, newContext(SchemeTopK, shape, Options{Fraction: 0.3, Seed: 1}).CompressInto(in, nil)[1:]...))
	// The ternary flags byte: the reserved capped spelling, unknown bits,
	// and — under the live value — long-run tokens cut short, overlong,
	// overflowing and overrunning (52 groups: 257 elements).
	hdr := func(flags byte, body ...byte) []byte {
		return append([]byte{byte(SchemeThreeLC), 0, 0, 0x80, 0x3f, flags}, body...)
	}
	for _, flags := range []byte{ternaryFlagZRE, ternaryFlagLongRun, 0x80, 0xff} {
		f.Add(hdr(flags, 255, 2, 251))
	}
	f.Add(hdr(ternaryZRE, 255, 2, 251)) // valid: 14·3 + 10
	f.Add(hdr(ternaryZRE, 255))
	f.Add(hdr(ternaryZRE, 252, 255, 0x82))
	f.Add(hdr(ternaryZRE, 255, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	f.Add(hdr(ternaryZRE, 255, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add(hdr(ternaryZRE, 255, 3))

	matched := tensor.New(shape[0])
	mismatched := tensor.New(64)
	f.Fuzz(func(t *testing.T, wire []byte) {
		_ = DecompressInto(wire, matched)    // errors fine, panics are not
		_ = DecompressInto(wire, mismatched) // wrong-shape slot must error, not panic
	})
}
