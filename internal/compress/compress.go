// Package compress unifies the state-change traffic compression schemes the
// 3LC paper evaluates (§5.1) behind a single Compressor interface with a
// self-describing wire format.
//
// A Compressor is a per-tensor *compression context* in the paper's sense
// (§3, Figure 2): it owns whatever sender-side state the scheme needs —
// most importantly the error-accumulation buffer — for a single tensor
// (one layer's gradients on a worker, or one layer's model deltas on a
// server); a 3LC context may instead share that buffer with its caller
// (NewThreeLCOver). Decompression is stateless: any endpoint can decode a wire
// message knowing only the tensor shape.
//
// The hot-path API is append-style and allocation-free in steady state:
// CompressInto appends the wire message to a caller-provided buffer, so a
// context driven with a recycled buffer (dst[:0] of the previous step's
// wire) performs zero heap allocations per step once its scratch space has
// converged; a one-shot caller passes nil.
//
// The ternary codecs (3LC and the stochastic baseline) run on the fused
// single-pass kernels of internal/kernel: compress touches tensor memory
// exactly twice (accumulate fused with the |max| reduction, then a fused
// quantize → residual → quartic-pack → zero-run-emit loop that writes
// wire bytes directly) and decode-add exactly once (a 243-entry LUT adds the
// literal groups' M·q into the destination floats; zero runs are skipped).
// The staged quant/encode primitives remain as the bit-identical reference
// implementation.
//
// Decoding has one direction: as in the paper, a receiver only ever adds a
// decoded state change. It dispatches through a codec registry indexed by
// the wire's first byte (see RegisterDecoder), where each scheme registers
// its decode-accumulate path from an init function in the file that
// implements its encoder; a decode into a fresh buffer is the first add
// (DecompressInto). Every decoder writes the destination tensor in place
// with no scratch, so the steady-state pull path allocates nothing either.
//
// Implemented schemes, named after the paper's evaluation section:
//
//	32-bit float       — uncompressed baseline
//	8-bit int          — TPU-style 255-level quantization
//	Stoch 3-value + QE — TernGrad-like stochastic ternary + quartic encoding
//	MQE 1-bit int      — 1-bit SGD with error feedback
//	25% / 5% sparsification — top-k with bitmap + error accumulation
//	2 local steps      — transmit accumulated changes every k-th step
//	3LC (s)            — 3-value quantization with sparsity multiplication,
//	                     error accumulation, quartic + zero-run encoding
//
// Beside the designs sits the wire of what a design exempts from its codec
// (§5.1's small tensors): NewExempt, lossless float32 repacked as bit planes
// under every design but the float32 one.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// Scheme identifies a traffic compression design.
type Scheme uint8

// Wire-format scheme identifiers. These appear as the first byte of every
// compressed message.
const (
	SchemeNone Scheme = iota
	SchemeInt8
	SchemeThreeLC
	SchemeStoch3QE
	SchemeMQE1Bit
	SchemeTopK
	SchemeLocalSteps
	_ // 7 and 8 are reserved (below)
	_
	// SchemePacked32 marks the lossless packed float32 wire: what a tensor
	// exempt from compression travels as under a compressing design (see
	// NewExempt in packed.go). It is not a design: New rejects it.
	SchemePacked32
	schemeCount
)

// Reserved values. Each once named a wire format that is gone; none may be
// reissued, or a wire (or checkpoint) written before the deletion is
// misread instead of refused. The generic checks refuse them: a scheme
// byte with no decoder (unknownScheme), a ternary flags byte that is
// neither 0 nor ternaryZRE (ternaryZeroRun).
//
//	scheme 7             Ako-style round-robin partial exchange (§6's
//	                     related work)
//	scheme 8             another scheme's wire through a Huffman or LZ
//	                     second stage
//	ternary flags 0x01   the capped zero-run spelling, whose 255 meant 14
//	                     groups with no uvarint after it

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "32-bit float"
	case SchemeInt8:
		return "8-bit int"
	case SchemeThreeLC:
		return "3LC"
	case SchemeStoch3QE:
		return "Stoch 3-value + QE"
	case SchemeMQE1Bit:
		return "MQE 1-bit int"
	case SchemeTopK:
		return "sparsification"
	case SchemeLocalSteps:
		return "local steps"
	case SchemePacked32:
		return "packed float32"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Options configures scheme-specific parameters.
type Options struct {
	// Sparsity is the 3LC sparsity multiplier s, 1 <= s < 2. Zero means 1.
	Sparsity float64
	// ZeroRun enables zero-run encoding on top of quartic encoding for
	// 3LC. The paper's full design always enables it; Table 2's "No ZRE"
	// row disables it.
	ZeroRun bool
	// Fraction is the transmitted fraction for SchemeTopK (e.g. 0.25, 0.05).
	Fraction float64
	// Interval is the local-step count for SchemeLocalSteps (e.g. 2).
	Interval int
	// Seed seeds the RNG used by stochastic quantization and threshold
	// sampling.
	Seed uint64
	// CodecParallelism is ignored: every codec runs on the calling
	// goroutine. It stays only because the benchmark module's probes set
	// it; ROADMAP item 1A drops it.
	CodecParallelism int
}

// Compressor is a per-tensor compression context. Compression consumes one
// state-change tensor (a gradient or a model delta) and produces the wire
// message to transmit; internal error state (if the scheme has any) is
// updated so that unsent changes are retried at later steps. Implementations
// are not safe for concurrent use; each tensor endpoint owns one context.
type Compressor interface {
	// Scheme returns the wire scheme identifier.
	Scheme() Scheme
	// Name returns a human-readable design name matching the paper.
	Name() string
	// CompressInto encodes in (which must match the context's shape),
	// appends the wire message to dst and returns the extended slice,
	// advancing error-accumulation state. A nil dst makes a fresh wire;
	// passing the previous step's buffer re-sliced to dst[:0] makes the
	// per-step compression path allocation-free once capacities converge.
	// A scheme that transmits nothing this step (local steps) returns dst
	// unchanged.
	CompressInto(in *tensor.Tensor, dst []byte) []byte
}

// PreAccumulator is implemented by compression contexts whose compress
// pass 1 is an error-accumulation sweep over the context's buffer (3LC).
// It lets a producer whose own final sweep writes the state change — the
// parameter server's optimizer update writing model deltas, or a worker's
// backward pass adding gradients into the buffer it shares with its push
// context (NewThreeLCOver) — fold that write directly into the
// accumulation buffer, fusing compress pass 1 away: the producer adds each
// value into AccData as it computes it, reduces max|AccData| with exactly
// the kernel's accumulate-max semantics (bit-masked |·|, ascending-index
// max) and records the block maxima in a kernel.Blocks record — in the
// same sweep (kernel.Blocks.SGDStep into an Acc sink does all three), a
// span at a time as each span of the buffer becomes final
// (kernel.Blocks.MaxAbsSpan: a Linear's backward, row by row) or, after
// the adds, in one read-only sweep (kernel.Blocks.MaxAbs) — and
// hands the record and the reduction to CompressPreAccumulated, which
// performs only the encode pass, skipping the blocks the record shows
// cannot quantize.
// Wires and residual state are bit-identical to driving CompressInto with
// a materialized state-change tensor.
type PreAccumulator interface {
	// AccData returns the raw error-accumulation buffer (length = tensor
	// elements) the producer must fold the step's state change into.
	AccData() []float32
	// CompressPreAccumulated appends the wire message given the record
	// whose maxima the producer's fold recorded (nil: none, every block is
	// read) and maxAbs = max|AccData| after it, advancing residual state
	// exactly like CompressInto.
	CompressPreAccumulated(blk *kernel.Blocks, maxAbs float32, dst []byte) []byte
}

// RawWriter is implemented by compression contexts whose wire is the state
// change itself as raw float32 (the float32 baseline, SchemeNone). It lets
// a producer whose own final sweep computes the state change — the
// parameter server's optimizer update — write it straight into the wire
// (kernel.Blocks.SGDStep into a Raw sink), so no state-change tensor
// exists and CompressInto's copy of one never runs. The context keeps the
// header; the wire is byte for byte CompressInto's of that state change.
type RawWriter interface {
	// RawWire appends the wire's header to dst and reserves its body, 4
	// bytes per element, returning the extended wire and the body the
	// producer must fill.
	RawWire(dst []byte) (wire, body []byte)
}

// New creates a compression context for a tensor of the given shape.
func New(s Scheme, shape []int, opt Options) Compressor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	switch s {
	case SchemeNone:
		return &noneCompressor{shape: shape, n: n}
	case SchemeInt8:
		return &int8Compressor{shape: shape, n: n}
	case SchemeThreeLC:
		return newThreeLCCompressor(shape, opt.Sparsity, opt.ZeroRun, nil)
	case SchemeStoch3QE:
		return newStochCompressor(shape, opt.Seed)
	case SchemeMQE1Bit:
		return newOneBitCompressor(shape)
	case SchemeTopK:
		if opt.Fraction <= 0 || opt.Fraction > 1 {
			panic("compress: TopK needs Fraction in (0,1]")
		}
		return newTopKCompressor(shape, opt.Fraction, opt.Seed)
	case SchemeLocalSteps:
		k := opt.Interval
		if k < 1 {
			k = 2
		}
		return newLocalStepsCompressor(shape, k)
	case SchemePacked32:
		panic("compress: SchemePacked32 is the wire of an exempt tensor, not a design; use NewExempt")
	default:
		panic(fmt.Sprintf("compress: unknown scheme %d", s))
	}
}

// --- shared little-endian helpers ------------------------------------------

var le = binary.LittleEndian

func getF32(src []byte) float32 {
	return math.Float32frombits(le.Uint32(src))
}

// appendF32 appends the 4-byte little-endian encoding of v to dst.
func appendF32(dst []byte, v float32) []byte {
	var b [4]byte
	le.PutUint32(b[:], math.Float32bits(v))
	return append(dst, b[:]...)
}
