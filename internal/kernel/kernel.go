// Package kernel implements the fused single-pass hot-path kernels of the
// 3LC compression pipeline.
//
// The staged pipeline (package quant + package encode) realizes §3.1–§3.3
// as seven separate full sweeps over tensor memory — accumulate, |max|
// reduction, quantize, local dequantize, residual update, quartic pack,
// zero-run emit — so steady-state step time is memory-bandwidth bound.
// This package collapses the per-element work so the whole compress side
// sweeps tensor memory exactly twice and the decode side exactly once:
//
//	pass 1  AccumulateMaxAbs    buf += in fused with the max|buf| reduction
//	                            (reads both, writes buf); a context's form
//	                            also records each 1 280-element block's
//	                            max|buf| in its Blocks record. A worker's
//	                            3LC tensor, whose backward already added
//	                            g into e, has it taken by a Linear's
//	                            backward row by row as each row is final
//	                            (Blocks.MaxAbsSpan), or else by the
//	                            read-only Blocks.MaxAbs
//	pass 2  EncodeTernary       quantize → local-dequantize → residual →
//	                            quartic-pack → zero-run-emit in one loop
//	                            that writes wire bytes directly; skips every
//	                            block whose recorded max is under the
//	                            quantizer threshold (its digits are zero and
//	                            v − M·0 = v while M is finite), reads the
//	                            rest of buf once and, on the asm tier,
//	                            writes residuals back only into 40-element
//	                            blocks that hold a non-zero digit, so at
//	                            3LC's zero fractions it is a read-only
//	                            stream over the blocks that can quantize
//	decode  DecodeTernaryAdd    adds the literal groups' M·q into the
//	                            destination through the LUT and skips zero
//	                            runs; a decode into a fresh buffer is this
//	                            over a cleared one
//
// The skip needs non-zero digits that cluster in few blocks and a finite
// float32(M). lan-3lc's and wan-3lc's 1.85M-element layers have them: over
// 90 steps of two workers their pushes hold a non-zero digit in 1.8 % of
// the blocks, their pulls in 8.4 %. tiny-stream's 2 304-element tensors
// are two blocks each, 86 % and 95 % of them visited; a scattered input
// visits every block, at the cost of a core call and a compaction per
// block instead of one per tensor.
//
// The zero-run spelling is package encode's, long-run token included;
// flushZeroRun is the one place that writes it, zeroRunAt the one that reads.
//
// Every kernel is bit-compatible with the staged reference: wires are
// byte-identical and residual buffers bit-identical for any input,
// property-tested (and fuzzed, FuzzFusedVsStaged) against the staged
// composition. The staged primitives remain in quant/encode as the
// reference implementation and for callers that need the intermediate
// representations.
//
// Every kernel runs on the calling goroutine, and so does a node's codec
// work one level up (package ps runs its tensors one after another), so a
// tensor's codec is one goroutine's sequential sweep.
//
// The aggregation side adds a fourth kernel, DecodeTernaryAdd (dst += M·q
// in one pass over the wire bytes and the non-zero groups: zero runs skip
// memory, see decodeadd.go), and the parameter server's optimizer a fifth,
// SGDStep (average → momentum → weight → delta in one sweep, the delta
// going where its Sink says: folded into an accumulation buffer with the
// |max| reduction and block maxima, absorbing the pull's pass 1; written
// as a raw float32 pull wire's body; or stored). Both are methods of the
// gradient sum's Blocks record: the decode-add clears a dead block where
// the step's first literal group lands, and the sweep reads a shared zero
// block in place of a dead block's gradient, so the server neither
// zero-fills nor re-reads the blocks of a sum no push reached. Tensors
// that travel as verbatim float32 — the float32 baseline, state blobs and
// checkpoints — are moved by the four raw cores of raw.go, one streaming
// pass each; what a compressing run exempts from its codec travels as the
// bit planes of planes.go, 64 values a block, and lands through the same
// raw cores. A float32 worker's push moves through none of them: RawView,
// the package's one unsafe function, views a tensor's memory as its raw
// bytes, which on a little-endian host are its wire as they stand (it
// returns nil on any other host, whose workers keep the copying put).
//
// The inner loops behind these kernels are dispatched through a
// CPU-feature-selected registry (see dispatch.go) with two tiers per core:
//
//	core                  scalar              asm (AVX2)
//	accumulate+|max|      range loop          32-float blocks, 4 VMAXPS chains
//	and read-only |max|   (one call per record block on both tiers)
//	ternary quantize/pack cmov quantize loop  40-elem (8-group) AVX2 blocks:
//	                      with inline ZRE     read-only scan, all-zero blocks
//	                                          skip the quantize, residual write
//	                                          and pack; then a word-at-a-time
//	                                          zero-run compaction
//	                      (record blocks under the threshold skipped before
//	                      either tier's loop, on both tiers)
//	LUT decode-add/set    byte-at-a-time      + AVX row loads for long literal
//	                      row apply           stretches
//	fused SGD sweep,      range loop          8-float mul/add/sub (never FMA);
//	one core a sink                           the raw core is the delta core
//	                                          storing unaligned to bytes
//	raw float32 put/get/  byte-order loop     32-float unaligned moves and adds
//	add/first-add
//	bit-plane block       five masked-swap    byte shuffles and VPMOVMSKB, a
//	pack/unpack           stages on 32 words  whole block a call
//
// The tier is picked once at init from CPUID (asm when AVX2 is present,
// else scalar) and can be pinned with THREELC_KERNEL=scalar|asm; both
// tiers emit byte-identical wires, so the choice is invisible outside
// timing.
package kernel

import (
	"fmt"
	"math"
)

// PassHook, when non-nil, is called once per full sweep a kernel in this
// package makes over tensor memory, with a pass label and the element
// count swept. It is the pass-counting test double behind the "compress is
// exactly two passes, decode exactly one" guarantee: tests install a
// recording hook, run the pipeline, and count calls. Production code must
// leave it nil (the hot loops pay only a nil check).
var PassHook func(pass string, elems int)

func notePass(pass string, n int) {
	if PassHook != nil {
		PassHook(pass, n)
	}
}

// AccumulateMaxAbs is compress pass 1: it adds in to buf element-wise and
// returns max|buf| of the updated buffer, fusing the error-accumulation
// sweep with the |max| reduction the quantizer needs (the staged pipeline
// runs them as two separate sweeps). buf and in must have equal length.
// It records nothing: EncodeTernary after it visits every block.
//
//3lc:noalloc
func AccumulateMaxAbs(buf, in []float32) float32 {
	var none *Blocks
	return none.AccumulateMaxAbs(buf, in)
}

// AccumulateMaxAbs is compress pass 1 recording x: each block's max|buf|
// lands in the record's max as the tensor's max is reduced. A nil x
// records nothing.
//
//3lc:noalloc
func (x *Blocks) AccumulateMaxAbs(buf, in []float32) float32 {
	if len(buf) != len(in) {
		panic(fmt.Sprintf("kernel: AccumulateMaxAbs length mismatch %d != %d", len(buf), len(in)))
	}
	notePass("accumulate+maxabs", len(buf))
	idx := x.record(len(buf))
	if idx == nil {
		return accMaxCore(buf, in)
	}
	var m float32
	for b := 0; b < len(buf); b += BlockElems {
		e := min(b+BlockElems, len(buf))
		bm := accMaxCore(buf[b:e], in[b:e])
		idx[b/BlockElems] = bm
		if bm > m {
			m = bm
		}
	}
	return m
}

// accMaxAbsRange is the unhooked scalar-tier accumulate+|max| core. |s| is
// taken by masking the sign bit rather than a compare-and-negate: the sign
// of random data makes that branch unpredictable (measured ~7x slower),
// while the mask is branchless. The reduction result is bit-identical
// either way — ±0 and NaN lose every `a > m` comparison under both forms.
func accMaxAbsRange(buf, in []float32) float32 {
	var m float32
	buf = buf[:len(in)]
	for i, v := range in {
		s := buf[i] + v
		buf[i] = s
		a := math.Float32frombits(math.Float32bits(s) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}

// MaxAbs returns max|data| in one hooked sweep. It is pass 1 of the fused
// stochastic-ternary and int8 pipelines, which have no error accumulation
// to fuse the reduction with.
//
//3lc:noalloc
func MaxAbs(data []float32) float32 {
	var none *Blocks
	return none.MaxAbs(data)
}

// MaxAbs is the read-only compress pass 1 of a buffer that already holds
// e + g — a worker's gradient tensor that is its 3LC error buffer, which
// backward added the step's gradient into without recording it
// (MaxAbsSpan): it returns max|buf| and records
// each block's max|buf| in x, exactly what AccumulateMaxAbs would return
// and record after folding the same sum into buf, without writing a
// float. A nil x records nothing.
//
//3lc:noalloc
func (x *Blocks) MaxAbs(buf []float32) float32 {
	notePass("maxabs", len(buf))
	idx := x.record(len(buf))
	if idx == nil {
		return maxCore(buf)
	}
	var m float32
	for b := 0; b < len(buf); b += BlockElems {
		bm := maxCore(buf[b:min(b+BlockElems, len(buf))])
		idx[b/BlockElems] = bm
		if bm > m {
			m = bm
		}
	}
	return m
}

// MaxAbsSpan is compress pass 1 of buf taken a span at a time, by the
// producer that has just written buf[lo:hi] and reads it again while it is
// in cache — a layer's backward, as each row of a weight gradient becomes
// final: it folds max|buf[lo:hi]| into the block maxima of x, a block's
// entry starting afresh at the span holding the block's first element, and
// returns m folded with the span's max. Spans taken in order from element
// 0, with m = 0 at the first, to len(buf) leave x recording what MaxAbs(buf)
// records and return what it returns, bit for bit: each core masks the
// sign bit and drops NaN, so a max is the same however the spans split
// it. The spans are the producer's writes, not another sweep: no pass is
// hooked.
//
//3lc:noalloc
func (x *Blocks) MaxAbsSpan(buf []float32, lo, hi int, m float32) float32 {
	idx := x.record(len(buf))
	for lo < hi {
		b := lo / BlockElems
		e := min((b+1)*BlockElems, hi)
		bm := maxCore(buf[lo:e])
		if lo == b*BlockElems || bm > idx[b] {
			idx[b] = bm
		}
		if bm > m {
			m = bm
		}
		lo = e
	}
	return m
}

// maxAbsRange is the unhooked scalar-tier |max| core, masking the sign bit
// as accMaxAbsRange does: ±0 and NaN lose every `a > m`.
func maxAbsRange(data []float32) float32 {
	var m float32
	for _, v := range data {
		a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
		if a > m {
			m = a
		}
	}
	return m
}
