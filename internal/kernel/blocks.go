package kernel

// BlockElems is the block of the per-block record (Blocks): a multiple of
// the 5-element quartic group and of the asm tier's 40-element quantize
// block, so a skipped block is whole groups and a visited one whole asm
// blocks up to the tensor's tail. Chosen from a sweep of 320, 640, 1280
// and 2560 (README, "Kernel dispatch"): smaller blocks skip more of
// lan-3lc's pulls (4.1 % of 320-element blocks visited, 13.3 % of
// 2560-element ones) but pay a core call and a compaction per block, which
// larger ones save on the dense and clustered encode rows; lan-3lc's
// exchange did not tell them apart, and read lowest at 1280. It need not
// divide a layer's rows: a backward that records row by row
// (MaxAbsSpan) splits a row where a block ends, as the 768- and
// 1024-wide rows of the end-to-end MLP are split.
const BlockElems = 1280

// Blocks is the per-block record of one tensor: for each BlockElems-element
// block, the max|buf| the last pass 1 reduced over it, and a stamp saying
// whether it holds the current step's data. A compressor keeps one for its
// two passes and uses the max alone; the parameter server keeps one per
// tensor, whose stamps describe the gradient sum its pushes decode-add
// into and whose max describes the pull's error-accumulation buffer the
// optimizer sweep folds the model delta into.
//
// The max. Pass 1 (AccumulateMaxAbs, SGDStep into an accumulation buffer,
// MaxAbs over a buffer that already holds its sum, or MaxAbsSpan span by
// span as a producer finishes writing each — a Linear's backward, so a
// worker's push re-reads nothing) records max|buf| of every block as it
// reduces the tensor's max, and
// pass 2 (EncodeTernary) skips every block whose max is under the
// quantizer's threshold: such a block quantizes to zero digits and keeps
// its residual (v − M·0 = v while M is finite), so its groups join the
// zero run without being read, packed or compacted. The skip pays where
// non-zero digits cluster in few blocks, as on a large layer's gradients
// and model deltas; where they are scattered every block is visited, as
// without a record. Pass 2 consults what the last pass 1 recorded, so
// nothing may write the buffer between the two; a max that does not cover
// the buffer is not consulted.
//
// The stamps. A block is live when its stamp equals the record's epoch, so
// Reset kills every block in O(1). A dead block reads as +0 whatever its
// memory holds: DecodeTernaryAdd clears it the first time a literal group
// lands in it, a dense add clears every dead block at once (ClearDead,
// then Mark), and SGDStep reads a shared zero block in its place.
//
// A nil record counts every block as live and records nothing — the
// contract of a plain destination. The zero Blocks has every block dead
// and no max recorded: its stamps size themselves to the tensor on first
// use (the one allocation; a tensor of another length resets them), its
// max on the first pass 1.
type Blocks struct {
	max   []float32 // max|buf| of each block as of the last pass 1
	stamp []uint32  // per block: the epoch in which it last became live
	epoch uint32    // the current step's stamp; never 0 once stamp is sized
}

// blocks returns the number of blocks of an n-element tensor.
func blocks(n int) int { return (n + BlockElems - 1) / BlockElems }

// record returns x's max sized for an n-element tensor, nil for a nil
// record: the slots pass 1 fills.
func (x *Blocks) record(n int) []float32 {
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

// consult returns x's max when it covers an n-element tensor, else nil:
// the entries pass 2 reads.
func (x *Blocks) consult(n int) []float32 {
	if x == nil || len(x.max) != blocks(n) {
		return nil
	}
	return x.max
}

// Reset starts a step: every block is dead.
func (x *Blocks) Reset() {
	x.epoch++
	if x.epoch == 0 { // wrapped: no stale stamp may equal the new epoch
		clear(x.stamp)
		x.epoch = 1
	}
}

// sized makes x one stamp per block of an n-element tensor.
func (x *Blocks) sized(n int) {
	if k := blocks(n); len(x.stamp) != k {
		x.stamp = make([]uint32, k)
		x.epoch = max(x.epoch, 1)
	}
}

// enter makes the block of dst holding element w live, clearing it if it
// was dead, and returns the element the block ends at. A nil x clears
// nothing.
func (x *Blocks) enter(dst []float32, w int) (end int) {
	b := w / BlockElems
	lo := b * BlockElems
	end = min(lo+BlockElems, len(dst))
	if x != nil && x.stamp[b] != x.epoch {
		clear(dst[lo:end])
		x.stamp[b] = x.epoch
	}
	return end
}

// forScale sizes x for dst and returns the record a decode-add under scale
// m runs with: x itself, or — when m·0 is NaN and every element takes it —
// nil, after clearing the dead blocks and marking every block live.
func (x *Blocks) forScale(m float32, dst []float32) *Blocks {
	if x == nil {
		return nil
	}
	x.sized(len(dst))
	if nonFinite(m) {
		x.ClearDead(dst)
		x.Mark(len(dst))
		return nil
	}
	return x
}

// Empty reports whether no block of the n-element tensor x records is
// live. A nil record is never empty.
func (x *Blocks) Empty(n int) bool {
	if x == nil {
		return false
	}
	x.sized(n)
	for _, s := range x.stamp {
		if s == x.epoch {
			return false
		}
	}
	return true
}

// ClearDead zeroes every dead block of dst, leaving the record as it is:
// what dst reads as does not change. A dense add into a sum that is not
// empty runs after it, then Mark.
func (x *Blocks) ClearDead(dst []float32) {
	if x == nil {
		return
	}
	x.sized(len(dst))
	for b, s := range x.stamp {
		if s != x.epoch {
			clear(dst[b*BlockElems : min((b+1)*BlockElems, len(dst))])
		}
	}
}

// Mark stamps every block of the n-element tensor x records live: after a
// dense add, which wrote every element.
func (x *Blocks) Mark(n int) {
	if x == nil {
		return
	}
	x.sized(n)
	for b := range x.stamp {
		x.stamp[b] = x.epoch
	}
}

// zeroBlock is the gradient SGDStep reads in place of a dead block's.
// Nothing writes it.
var zeroBlock [BlockElems]float32

// grad returns the stretch of the sum gs a sweep reads from the
// block-aligned element b on: to the end of b's block — or, with merge, of
// the run of live blocks b starts — as gs itself where live, and as the
// shared zero block where dead.
func (x *Blocks) grad(gs []float32, b int, merge bool) (e int, g []float32, live bool) {
	n := len(gs)
	e = min(b+BlockElems, n)
	switch {
	case x != nil && x.stamp[b/BlockElems] != x.epoch:
		return e, zeroBlock[:e-b], false
	case !merge:
	case x == nil:
		e = n
	default:
		for e < n && x.stamp[e/BlockElems] == x.epoch {
			e = min(e+BlockElems, n)
		}
	}
	return e, gs[b:e], true
}
