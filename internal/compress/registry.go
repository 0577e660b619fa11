package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// DecodeFunc decodes one scheme's wire payload (the bytes after the scheme
// identifier) into dst. Decoders operate on untrusted network data: they
// must return errors for malformed payloads, never panic, and must not
// retain the payload slice.
type DecodeFunc func(payload []byte, dst *tensor.Tensor) error

// decoders is the wire-dispatch table: the first byte of a compressed
// message indexes directly into it. Each scheme self-registers its decoder
// from an init function next to its encoder, so adding a codec is a single
// file touching no central switch.
var decoders [256]DecodeFunc

// RegisterDecoder installs fn as the decoder for scheme s. It panics on a
// nil decoder or a duplicate registration — both are programming errors
// caught at process start, not at decode time.
func RegisterDecoder(s Scheme, fn DecodeFunc) {
	if fn == nil {
		panic(fmt.Sprintf("compress: RegisterDecoder(%v) with nil decoder", s))
	}
	if decoders[s] != nil {
		panic(fmt.Sprintf("compress: duplicate decoder registration for %v", s))
	}
	decoders[s] = fn
}

// RegisteredSchemes returns every scheme with an installed decoder, in
// ascending wire-identifier order. Tests use it to assert full corpus
// coverage of the decode error paths.
func RegisteredSchemes() []Scheme {
	var out []Scheme
	for s, fn := range decoders {
		if fn != nil {
			out = append(out, Scheme(s))
		}
	}
	return out
}

// AddDecodeFunc decodes one scheme's wire payload and ACCUMULATES it into
// dst (dst += decoded) in a single fused pass, with no intermediate
// tensor: the aggregation-side counterpart of DecodeFunc.
//
// The accumulator contract is stricter than DecodeFunc's: dst holds live
// aggregation state (other workers' gradients already summed), so a
// malformed payload must be rejected BEFORE any element of dst is
// modified — validate-then-accumulate, never partially apply. The
// accumulated result must be bit-identical to decoding into scratch and
// adding the scratch element-wise, for every dst free of −0 (see
// DecompressAddInto for the one corner a zero-run skip leaves).
type AddDecodeFunc func(payload []byte, dst *tensor.Tensor) error

// addDecoders is the decode-accumulate dispatch table. Schemes without a
// fused decode-add register nothing and fall back to pooled
// decode-then-add inside DecompressAddInto, which trivially satisfies the
// bit-identity contract.
var addDecoders [256]AddDecodeFunc

// RegisterAddDecoder installs fn as the decode-accumulate path for scheme
// s, with the same duplicate/nil policing as RegisterDecoder. A scheme
// must already have a plain decoder registered: the add path is an
// optimization over decode-then-add, never a replacement.
func RegisterAddDecoder(s Scheme, fn AddDecodeFunc) {
	if fn == nil {
		panic(fmt.Sprintf("compress: RegisterAddDecoder(%v) with nil decoder", s))
	}
	if addDecoders[s] != nil {
		panic(fmt.Sprintf("compress: duplicate add-decoder registration for %v", s))
	}
	addDecoders[s] = fn
}

// Decompress decodes a wire message produced by any Compressor into a new
// tensor of the given shape. It returns an error for malformed messages.
func Decompress(wire []byte, shape []int) (*tensor.Tensor, error) {
	out := tensor.New(shape...)
	if err := DecompressInto(wire, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto decodes wire into dst through the codec registry. An
// empty wire message (produced by the local-steps scheme on
// non-transmitting steps) decodes as all zeros. Decoding allocates nothing
// in steady state: scratch space comes from a sync.Pool and the output is
// written in place.
//
//3lc:noalloc
//3lc:decode
func DecompressInto(wire []byte, dst *tensor.Tensor) error {
	if len(wire) == 0 {
		dst.Zero()
		return nil
	}
	fn := decoders[wire[0]]
	if fn == nil {
		return unknownScheme(wire[0])
	}
	return fn(wire[1:], dst)
}

// unknownScheme refuses a wire whose scheme byte has no decoder, naming the
// retired ones.
func unknownScheme(b byte) error {
	switch Scheme(b) {
	case schemeRetiredEntropy:
		return fmt.Errorf("compress: scheme byte %d is the retired entropy-coded wire (a Huffman or LZ stage over another scheme's wire); re-encode it without the stage", b)
	case schemeRetiredRoundRobin:
		return fmt.Errorf("compress: scheme byte %d is the retired round-robin exchange wire; re-encode it under another design", b)
	}
	return fmt.Errorf("compress: unknown scheme byte %d", b)
}

// DecompressAddInto decodes wire and accumulates it into dst: dst +=
// decoded, bit-identical to DecompressInto into scratch followed by
// dst.Add(scratch), but — for schemes with a registered add-decoder — in
// a single fused pass with no intermediate tensor. This is the
// aggregation hot path: the parameter server runs one call per worker per
// tensor, so fusing here halves the tensor-memory traffic of gradient
// aggregation. The decode runs on the calling goroutine: the int argument
// is ignored, and stays only because the benchmark module's probes pass it
// (ROADMAP item 1A drops it).
//
// An empty wire message (local steps, non-transmitting) accumulates
// zeros — an explicit += 0 sweep, because x + 0 is not the identity on
// negative zeros and the staged composition performs the adds. On error
// dst is unchanged (see AddDecodeFunc).
//
// One documented corner of the bit-identity: the ternary add-decoders
// skip zero runs (kernel.DecodeTernaryAdd) rather than add m·0 through
// them. x + (−0) = x always and x + (+0) = x except (−0) + (+0) = +0, so
// the skip differs from decode-then-add only where dst holds −0 under a
// +0 run: dst keeps −0, the staged add yields +0 — equal under ==, one
// sign bit apart. Neither production destination is affected: gradient
// sums never hold −0 (ps.Job.decodeAdd) and a weight tensor only one it
// started with. Non-finite scales still propagate NaN through runs.
//
//3lc:noalloc
//3lc:decode
func DecompressAddInto(wire []byte, dst *tensor.Tensor, _ int) error {
	if len(wire) == 0 {
		d := dst.Data()
		for i := range d {
			d[i] += 0
		}
		return nil
	}
	if fn := addDecoders[wire[0]]; fn != nil {
		return fn(wire[1:], dst)
	}
	if decoders[wire[0]] == nil {
		return unknownScheme(wire[0])
	}
	return decodeThenAdd(wire, dst)
}

// DecompressAddLive is DecompressAddInto into a gradient sum that live
// records (kernel.LiveBlocks): dst reads as +0 in every dead block. A
// ternary wire decode-adds through the record — a block is cleared when
// the first literal group of the step lands in it, zero runs touch
// nothing, and a non-finite scale makes every block live and adds densely.
// Every other wire is a dense add: into an empty sum as its first
// accumulation (DecompressFirstAddInto), otherwise after the dead blocks
// are cleared, and either way every block is live after it. On error
// neither what dst reads as nor the record changes. A nil live is
// DecompressAddInto.
//
//3lc:noalloc
func DecompressAddLive(wire []byte, dst *tensor.Tensor, live *kernel.LiveBlocks) error {
	if len(wire) > 0 && (Scheme(wire[0]) == SchemeThreeLC || Scheme(wire[0]) == SchemeStoch3QE) {
		return addTernary(wire[1:], dst, live)
	}
	var err error
	if live.Empty(dst.Len()) {
		err = DecompressFirstAddInto(wire, dst)
	} else {
		live.ClearDead(dst.Data())
		err = DecompressAddInto(wire, dst, 0)
	}
	if err != nil {
		return err
	}
	live.Mark(dst.Len())
	return nil
}

// DecompressFirstAddInto decodes wire into dst as the FIRST accumulation
// of a fresh gradient sum: bit-identical to zeroing dst and then
// DecompressAddInto. A float wire, raw or packed, can carry −0, so it is
// not copied but added to +0 element by element in registers
// (kernel.RawFirstAdd, kernel.Planes32FirstAdd: +0 + (−0) = +0, exactly as
// the staged add leaves it) — one write-only pass over dst, no zeroing
// sweep and no read. Everything else zeroes and accumulates.
//
// On error dst is zeroed — exactly the staged state of a fresh sum whose
// first accumulation was rejected.
func DecompressFirstAddInto(wire []byte, dst *tensor.Tensor) error {
	var err error
	switch {
	case len(wire) > 0 && (Scheme(wire[0]) == SchemeNone || Scheme(wire[0]) == SchemeLocalSteps):
		err = decodeRawFirstAdd(wire[1:], dst)
	case len(wire) > 0 && Scheme(wire[0]) == SchemePacked32:
		err = decodePackedFirstAdd(wire[1:], dst)
	default:
		dst.Zero()
		return DecompressAddInto(wire, dst, 0)
	}
	if err != nil {
		dst.Zero()
	}
	return err
}

// decodeThenAdd is the fallback decode-accumulate: decode into pooled
// scratch, then add. The scratch slice is pooled (only the small tensor
// header is rebuilt per call); schemes with subtractive wire formats
// (top-k bitmaps, whose skipped elements must contribute an exact staged
// +0) stay on it.
func decodeThenAdd(wire []byte, dst *tensor.Tensor) error {
	sp := scratchPool.Get().(*[]float32)
	s := *sp
	if cap(s) < dst.Len() {
		s = make([]float32, dst.Len())
	}
	s = s[:dst.Len()]
	tmp := tensor.FromSlice(s, dst.Len())
	err := DecompressInto(wire, tmp)
	if err == nil {
		dst.Add(tmp)
	}
	*sp = s
	scratchPool.Put(sp)
	return err
}
