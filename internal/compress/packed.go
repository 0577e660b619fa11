package compress

import (
	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

func init() {
	RegisterDecoder(SchemePacked32, decodePacked)
	RegisterAddDecoder(SchemePacked32, decodePackedAdd)
}

// packedCompressor is the wire of a tensor a compressing design exempts
// from its codec (§5.1: batch-norm vectors, small biases): float32,
// lossless, repacked as bit planes over blocks of 64 values. Wire format:
// [scheme][per block: 4B base, 4B plane mask, one plane per mask bit] — the
// layout is kernel/planes.go's, which also moves the bits. The context has
// no state: nothing accumulates, nothing to checkpoint, and a replay
// carries its wires as opaque bytes.
//
// A tensor whose packed form would not be shorter than the raw wire is
// emitted as the raw wire, SchemeNone, which its scheme byte makes
// self-describing: a packed context never costs a byte over float32.
type packedCompressor struct {
	n int
}

// minPackedElems is the length under which an exempt tensor is not worth
// looking at: packing costs a block of 64 whatever the length, and under 16
// values — two bytes a plane at most, behind a header the size of two
// values — what it can save is a handful of bytes. The paper's own reason
// for the exemption, one level down: "avoiding computation overhead far
// outweighs compacting already small tensors". The value comes from one
// layer benchmark (ps.BenchmarkSteadyStatePushPullTiny, vectors of 8); no
// benchmark workload has an exempt tensor of 11 to 47 values, so where in
// that range the cut belongs is not measured end to end.
const minPackedElems = 16

// NewExempt is the one definition of what a tensor exempt from compression
// travels as: verbatim float32 under the float32 design — the baseline
// every ratio is quoted against stays byte for byte itself — and under
// every design that compresses the lossless packed float32 wire, for all
// but the shortest tensors (minPackedElems).
func NewExempt(design Scheme, shape []int) Compressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if design == SchemeNone || n < minPackedElems {
		return New(SchemeNone, shape, Options{})
	}
	return &packedCompressor{n: n}
}

func (c *packedCompressor) Scheme() Scheme { return SchemePacked32 }
func (c *packedCompressor) Name() string   { return "packed float32" }

func (c *packedCompressor) Compress(in *tensor.Tensor) []byte {
	return c.CompressInto(in, nil)
}

//3lc:noalloc
func (c *packedCompressor) CompressInto(in *tensor.Tensor, dst []byte) []byte {
	data := in.Data()
	if len(data) != c.n {
		panic("compress: input size mismatch")
	}
	off := len(dst)
	dst = kernel.AppendPlanes32(append(dst, byte(SchemePacked32)), data)
	if len(dst)-off < 1+4*c.n {
		return dst
	}
	// Not shorter: the raw wire, in the capacity the packer reserved.
	return kernel.AppendRaw(append(dst[:off], byte(SchemeNone)), data)
}

//3lc:noalloc
//3lc:decode
func decodePacked(payload []byte, dst *tensor.Tensor) error {
	return kernel.Planes32Get(dst.Data(), payload)
}

// decodePackedAdd accumulates a packed payload, dst[i] += v: per element the
// add the raw wire of the same tensor performs. The kernel checks the whole
// payload before it touches dst.
//
//3lc:noalloc
//3lc:decode
func decodePackedAdd(payload []byte, dst *tensor.Tensor) error {
	return kernel.Planes32Add(dst.Data(), payload)
}

// decodePackedFirstAdd is the first accumulation of a fresh sum, +0 + v per
// element: a packed wire can carry −0, like the raw one (decodeRawFirstAdd).
//
//3lc:noalloc
//3lc:decode
func decodePackedFirstAdd(payload []byte, dst *tensor.Tensor) error {
	return kernel.Planes32FirstAdd(dst.Data(), payload)
}
