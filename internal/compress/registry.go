package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// addDecoders is the wire-dispatch table: the first byte of a compressed
// message indexes directly into it. Each scheme self-registers from an
// init function next to its encoder, so adding a codec is a single file
// touching no central switch.
var addDecoders [256]AddDecodeFunc

// RegisterDecoder installs add as scheme s's decoder, its decode-accumulate
// path. It panics on a nil function or a duplicate registration — both are
// programming errors caught at process start, not at decode time.
func RegisterDecoder(s Scheme, add AddDecodeFunc) {
	if add == nil {
		panic(fmt.Sprintf("compress: RegisterDecoder(%v) with a nil decoder", s))
	}
	if addDecoders[s] != nil {
		panic(fmt.Sprintf("compress: duplicate decoder registration for %v", s))
	}
	addDecoders[s] = add
}

// RegisteredSchemes returns every scheme with an installed decoder, in
// ascending wire-identifier order. Tests use it to assert full corpus
// coverage of the decode error paths.
func RegisteredSchemes() []Scheme {
	var out []Scheme
	for s, fn := range addDecoders {
		if fn != nil {
			out = append(out, Scheme(s))
		}
	}
	return out
}

// AddDecodeFunc decodes one scheme's wire payload (the bytes after the
// scheme identifier) and ACCUMULATES it into dst (dst += decoded) in a
// single fused pass, with no intermediate tensor. Decoders operate on
// untrusted network data: they must return errors for malformed payloads,
// never panic, and must not retain the payload slice.
//
// dst holds live aggregation state (other workers' gradients already
// summed), so a malformed payload must be rejected BEFORE any element of
// dst is modified — validate-then-accumulate, never partially apply. The
// accumulated result must be bit-identical to decoding into scratch and
// adding the scratch element-wise, for every dst free of −0 (see
// DecompressAddInto for the one corner a zero-run skip leaves).
type AddDecodeFunc func(payload []byte, dst *tensor.Tensor) error

// Decompress decodes a wire message produced by any Compressor into a new
// tensor of the given shape. It returns an error for malformed messages.
func Decompress(wire []byte, shape []int) (*tensor.Tensor, error) {
	out := tensor.New(shape...)
	if err := DecompressInto(wire, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto decodes wire into dst as the first accumulation of a
// fresh sum: bit-identical to zeroing dst and then DecompressAddInto. A
// float wire, raw or packed, is not copied but added to +0 element by
// element in registers (kernel.RawFirstAdd, kernel.Planes32FirstAdd) — one
// write-only pass over dst, no zeroing sweep and no read. Everything else
// zeroes and accumulates; the empty wire (local steps, non-transmitting)
// decodes as all zeros. It allocates nothing in steady state.
//
// Because it is +0 + v, a decoded −0 reads +0 (+0 + (−0) = +0) and a NaN
// is whatever the tier's add makes of it; every other value lands bit for
// bit. On error dst is zeroed — exactly the staged state of a fresh sum
// whose first accumulation was rejected — not left unchanged.
//
//3lc:noalloc
//3lc:decode
func DecompressInto(wire []byte, dst *tensor.Tensor) error {
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

// unknownScheme refuses a wire whose scheme byte has no decoder, the
// reserved bytes 7 and 8 included.
func unknownScheme(b byte) error {
	return fmt.Errorf("compress: unknown scheme byte %d", b)
}

// DecompressAddInto decodes wire and accumulates it into dst: dst +=
// decoded, bit-identical to decoding into scratch followed by
// dst.Add(scratch), but in a single fused pass with no intermediate
// tensor: every scheme registers its add-decoder. This is the
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
	fn := addDecoders[wire[0]]
	if fn == nil {
		return unknownScheme(wire[0])
	}
	return fn(wire[1:], dst)
}

// DecompressAddLive is DecompressAddInto into a gradient sum whose blocks
// live stamps (kernel.Blocks): dst reads as +0 in every dead block. A
// ternary wire decode-adds through the record — a block is cleared when
// the first literal group of the step lands in it, zero runs touch
// nothing, and a non-finite scale makes every block live and adds densely.
// Every other wire is a dense add: into an empty sum as its first
// accumulation (DecompressInto), otherwise after the dead blocks
// are cleared, and either way every block is live after it. On error
// neither what dst reads as nor the record changes. A nil live is
// DecompressAddInto.
//
//3lc:noalloc
func DecompressAddLive(wire []byte, dst *tensor.Tensor, live *kernel.Blocks) error {
	if len(wire) > 0 && (Scheme(wire[0]) == SchemeThreeLC || Scheme(wire[0]) == SchemeStoch3QE) {
		return addTernary(wire[1:], dst, live)
	}
	var err error
	if live.Empty(dst.Len()) {
		err = DecompressInto(wire, dst)
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
