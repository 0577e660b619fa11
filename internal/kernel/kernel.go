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
//	                            max|buf| in its BlockMax index
//	pass 2  EncodeTernary       quantize → local-dequantize → residual →
//	                            quartic-pack → zero-run-emit in one loop
//	                            that writes wire bytes directly; skips every
//	                            block whose indexed max is under the
//	                            quantizer threshold (its digits are zero and
//	                            v − M·0 = v while M is finite), reads the
//	                            rest of buf once and, on the asm tier,
//	                            writes residuals back only into 40-element
//	                            blocks that hold a non-zero digit, so at
//	                            3LC's zero fractions it is a read-only
//	                            stream over the blocks that can quantize
//	decode  DecodeTernary       ZRE-expand → quartic-unpack → scaled-apply
//	                            in one LUT-driven loop streaming wire bytes
//	                            straight into the destination floats
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
// Both compress passes have chunked-parallel forms over block-aligned spans
// (the max reduced from the index the spans record; a fused encode per
// span, compacted in place, with a zero-run stitch-up) that produce
// byte-identical output to the serial kernels for any worker count.
// Scheduling is work-proportional: see PassWorkers.
//
// The aggregation side adds a fourth kernel, DecodeTernaryAdd (dst += M·q
// in one pass over the wire bytes and the non-zero groups: zero runs skip
// memory, see decodeadd.go), and the parameter server's optimizer a fifth,
// FusedSGDStep (average → momentum → weight → delta → accumulate+|max| in
// one sweep, absorbing the pull's pass 1 and recording its block index;
// FusedSGDStepDelta stores the delta where there is no accumulation buffer
// to fold it into, and FusedSGDStepRaw writes it as a raw float32 pull
// wire's body). Both take a gradient sum's LiveBlocks record as their
// receiver: the decode-add clears a dead block where the step's first
// literal group lands, and the sweep reads a shared zero block in place of
// a dead block's gradient, so the server neither zero-fills nor re-reads
// the blocks of a sum no push reached. Tensors
// that travel as verbatim float32 — the float32 baseline, state blobs and
// checkpoints — are moved by the four raw cores of raw.go, one streaming
// pass each; what a compressing run exempts from its codec travels as the
// bit planes of planes.go, 64 values a block, and lands through the same
// raw cores.
//
// The inner loops behind these kernels are dispatched through a
// CPU-feature-selected registry (see dispatch.go) with two tiers per core:
//
//	core                  scalar              asm (AVX2)
//	accumulate+|max|      range loop          32-float blocks, 4 VMAXPS chains
//	                      (one call per index block on both tiers)
//	ternary quantize/pack cmov quantize loop  40-elem (8-group) AVX2 blocks:
//	                      with inline ZRE     read-only scan, all-zero blocks
//	                                          skip the quantize, residual write
//	                                          and pack; then a word-at-a-time
//	                                          zero-run compaction
//	                      (index blocks under the threshold skipped before
//	                      either tier's loop, on both tiers)
//	LUT decode-add/set    byte-at-a-time      + AVX row loads for long literal
//	                      row apply           stretches
//	fused SGD sweep,      range loop          8-float mul/add/sub (never FMA);
//	all three forms                           the raw form is the delta core
//	                                          storing unaligned to bytes
//	raw float32 put/get/  byte-order loop     32-float unaligned moves and adds
//	add/first-add
//	bit-plane block       five masked-swap    byte shuffles and VPMOVMSKB, a
//	pack/unpack           stages on 32 words  whole block a call
//
// The plain |max| reduction (int8 / stochastic / 1-bit only, off every 3LC
// and raw path) is one range loop on both tiers. The tier is picked once at
// init from CPUID (asm when AVX2 is present, else scalar) and can be pinned
// with THREELC_KERNEL=scalar|asm; both tiers emit byte-identical wires, so
// the choice is invisible outside timing.
package kernel

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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

// SpawnHook, when non-nil, is called once per goroutine a kernel fan-out
// spawns. It is the scheduling test double behind the "small tensors
// spawn zero goroutines, a k-chunk fan-out spawns k-1" guarantee (the
// caller always runs the last chunk itself instead of idling in Wait).
// Production code must leave it nil.
var SpawnHook func()

func noteSpawn() {
	if SpawnHook != nil {
		SpawnHook()
	}
}

// Work-proportional parallel scheduling.
//
// With the pipeline fused into two passes, each pass is a large fraction
// of total step time, so the fan-out decision is made per pass rather than
// per pipeline: callers ask PassWorkers once per pass, and a pass gets a
// goroutine only for every SpanElems elements it sweeps.
const (
	// ParallelThresholdElems is the tensor size below which every pass
	// runs serially: under it, fan-out overhead outweighs any win.
	ParallelThresholdElems = 1 << 18
	// SpanElems is the minimum number of elements per goroutine of a
	// fanned-out pass. One number serves every pass: on the asm tier both
	// compress passes stream at memory speed (~0.35 ns/element for the
	// reduction, 0.4–0.9 for quantize+pack), so a 1<<16 span is 25–60 µs of
	// work against a ~20 µs goroutine handoff. Measured on a 2-vCPU host,
	// EncodeTernaryParallel with 2 workers against the serial kernel:
	// 1<<16 per goroutine 19 → 40 µs (0.998-zero input) and 89 → 116 µs
	// (dense); 1<<17 per goroutine 65 → 75 and 190 → 230 µs; 1<<19 per
	// goroutine 352 → 353 and 835 → 578 µs.
	SpanElems = 1 << 17
)

// PassWorkers returns the goroutine fan-out for one fused pass over n
// elements: 1 below ParallelThresholdElems, otherwise GOMAXPROCS capped by
// the caller's budget (budget <= 0 means no cap) and by work
// proportionality (at least SpanElems elements per goroutine, so small
// passes never over-spawn even under a generous budget).
func PassWorkers(n, budget int) int {
	if n < ParallelThresholdElems {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if budget > 0 && w > budget {
		w = budget
	}
	if m := n / SpanElems; w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEachChunk splits [0, n) into `workers` contiguous spans whose
// boundaries (except the last) are multiples of align and runs fn(idx, lo,
// hi) for each span. With one resulting span, fn runs on the calling
// goroutine with zero spawns; with k spans, k-1 goroutines are spawned and
// the caller runs the final span itself instead of idling in Wait (one
// fewer handoff per fan-out, and tiny tensors never pay a spawn at all).
// fn gets the chunk index, which the two-phase reductions and the zero-run
// stitch-up need to address per-chunk result slots.
func forEachChunk(n, align, workers int, fn func(idx, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if align < 1 {
		align = 1
	}
	groups := (n + align - 1) / align
	if workers > groups {
		workers = groups
	}
	if workers <= 1 {
		fn(0, 0, n)
		return 1
	}
	per := groups / workers
	rem := groups % workers
	var wg sync.WaitGroup
	lo := 0
	lastLo := 0
	for g := 0; g < workers; g++ {
		cnt := per
		if g < rem {
			cnt++
		}
		hi := lo + cnt*align
		if hi > n {
			hi = n
		}
		if g == workers-1 {
			lastLo = lo
			break
		}
		wg.Add(1)
		noteSpawn()
		go func(idx, lo, hi int) {
			defer wg.Done()
			fn(idx, lo, hi)
		}(g, lo, hi)
		lo = hi
	}
	fn(workers-1, lastLo, n)
	wg.Wait()
	return workers
}

// BlockElems is the block of the per-block |max| index (BlockMax): a
// multiple of the 5-element quartic group and of the asm tier's 40-element
// quantize block, so a skipped block is whole groups and a visited one
// whole asm blocks up to the tensor's tail. Chosen from a sweep of 320,
// 640, 1280 and 2560 (README, "Kernel dispatch"): smaller blocks skip more
// of lan-3lc's pulls (4.1 % of 320-element blocks visited, 13.3 % of
// 2560-element ones) but pay a core call and a compaction per block, which
// larger ones save on the dense and clustered encode rows; lan-3lc's
// exchange did not tell them apart, and read lowest at 1280.
const BlockElems = 1280

// BlockMax is the per-block |max| index of one tensor's accumulation
// buffer. Pass 1 (AccumulateMaxAbs, FusedSGDStep) records max|buf| of every
// BlockElems-element block as it reduces the tensor's max, and pass 2
// (EncodeTernary) skips every block whose max is under the quantizer's
// threshold: such a block quantizes to zero digits and keeps its residual
// (v − M·0 = v while M is finite), so its groups join the zero run without
// being read, packed or compacted. The skip pays where non-zero digits
// cluster in few blocks, as on a large layer's gradients and model deltas;
// where they are scattered every block is visited, as without an index.
//
// Pass 2 consults what the last pass 1 recorded, so nothing may write the
// buffer between the two. The zero BlockMax is empty until a pass 1 sizes
// it; an index that does not hold one entry per block of the buffer
// (empty, or nil) is not consulted, and a nil one records nothing. The
// index also keeps the per-span scratch of the parallel forms, so a
// context that owns one runs both passes without allocating.
type BlockMax struct {
	max   []float32   // max|buf| of each block as of the last pass 1
	spans []ternChunk // per-span results of a fanned-out EncodeTernary
}

// blocks returns the number of index entries of an n-element tensor.
func blocks(n int) int { return (n + BlockElems - 1) / BlockElems }

// record returns x's entries sized for an n-element tensor, nil for a nil
// index: the slots pass 1 fills.
func (x *BlockMax) record(n int) []float32 {
	if x == nil {
		return nil
	}
	k := blocks(n)
	if cap(x.max) < k {
		x.max = make([]float32, k)
	}
	x.max = x.max[:k]
	return x.max
}

// consult returns x's entries when they index an n-element tensor, else
// nil: the entries pass 2 reads.
func (x *BlockMax) consult(n int) []float32 {
	if x == nil || len(x.max) != blocks(n) {
		return nil
	}
	return x.max
}

// AccumulateMaxAbs is compress pass 1: it adds in to buf element-wise and
// returns max|buf| of the updated buffer, fusing the error-accumulation
// sweep with the |max| reduction the quantizer needs (the staged pipeline
// runs them as two separate sweeps). buf and in must have equal length.
// It records no block index: EncodeTernary after it visits every block.
//
//3lc:noalloc
func AccumulateMaxAbs(buf, in []float32) float32 {
	var none *BlockMax
	return none.AccumulateMaxAbs(buf, in, 1)
}

// AccumulateMaxAbs is compress pass 1 recording x: each block's max|buf|
// lands in the index as the tensor's max is reduced. With workers > 1 the
// sweep fans out over block-aligned spans (forEachChunk) and the tensor's
// max is reduced from the index; float32 max is associative and NaN never
// wins it, so the result is bit-identical to the serial kernel for any
// worker count. A nil x records nothing and runs serially.
//
//3lc:noalloc
func (x *BlockMax) AccumulateMaxAbs(buf, in []float32, workers int) float32 {
	if len(buf) != len(in) {
		panic(fmt.Sprintf("kernel: AccumulateMaxAbs length mismatch %d != %d", len(buf), len(in)))
	}
	notePass("accumulate+maxabs", len(buf))
	idx := x.record(len(buf))
	if idx == nil {
		return accMaxCore(buf, in)
	}
	if workers > 1 {
		return accMaxParallel(buf, in, idx, workers)
	}
	return accMaxBlocks(buf, in, 0, len(buf), idx)
}

// accMaxBlocks runs the dispatched accumulate+|max| core over the blocks of
// buf[lo:hi] (lo block-aligned), recording each block's max in idx, and
// returns the span's max.
func accMaxBlocks(buf, in []float32, lo, hi int, idx []float32) float32 {
	var m float32
	for b := lo; b < hi; b += BlockElems {
		e := min(b+BlockElems, hi)
		bm := accMaxCore(buf[b:e], in[b:e])
		idx[b/BlockElems] = bm
		if bm > m {
			m = bm
		}
	}
	return m
}

// accMaxParallel is the fanned-out form of accMaxBlocks over the whole
// tensor: spans write disjoint index entries, then one serial reduction
// over the index (its entries are already magnitudes) gives the max.
func accMaxParallel(buf, in, idx []float32, workers int) float32 {
	forEachChunk(len(buf), BlockElems, workers, func(_, lo, hi int) {
		accMaxBlocks(buf, in, lo, hi, idx)
	})
	return maxAbsRange(idx)
}

// accMaxAbsRange is the unhooked serial core shared by the serial and
// chunked-parallel forms. |s| is taken by masking the sign bit rather than
// a compare-and-negate: the sign of random data makes that branch
// unpredictable (measured ~7x slower), while the mask is branchless. The
// reduction result is bit-identical either way — ±0 and NaN lose every
// `a > m` comparison under both forms.
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

// AccumulateMaxAbsParallel is the chunked form of AccumulateMaxAbs over a
// fresh block index, bit-identical to the serial kernel for any worker
// count. A context that runs it every step keeps a BlockMax instead.
func AccumulateMaxAbsParallel(buf, in []float32, workers int) float32 {
	return new(BlockMax).AccumulateMaxAbs(buf, in, workers)
}

// MaxAbs returns max|data| in one hooked sweep. It is pass 1 of the fused
// stochastic-ternary pipeline, which has no error accumulation to fuse the
// reduction with.
func MaxAbs(data []float32) float32 {
	notePass("maxabs", len(data))
	return maxAbsRange(data)
}

// MaxAbsParallel is the two-phase chunked form of MaxAbs, bit-identical
// for any worker count.
func MaxAbsParallel(data []float32, workers int) float32 {
	notePass("maxabs", len(data))
	if workers <= 1 || len(data) == 0 {
		return maxAbsRange(data)
	}
	maxes := make([]float32, workers)
	used := forEachChunk(len(data), 1, workers, func(idx, lo, hi int) {
		maxes[idx] = maxAbsRange(data[lo:hi])
	})
	var m float32
	for _, v := range maxes[:used] {
		if v > m {
			m = v
		}
	}
	return m
}

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
