package kernel

import (
	"bytes"
	"fmt"
	"math"

	"threelc/internal/encode"
)

// Fused decode-accumulate kernels.
//
// Server-side gradient aggregation is decode-bound: for every worker's
// push the staged path decodes the ternary wire into a scratch tensor
// (one full write sweep) and then adds the scratch into the aggregation
// buffer (another read+read/write sweep). The kernels here collapse the
// two into a single LUT-driven pass that streams wire bytes and
// accumulates dst[i] += M·q_i directly into the aggregation buffer — no
// intermediate float tensor exists, and per payload the aggregate side
// makes one pass over the wire bytes and the non-zero groups.
//
// The decode-ADD kernels mutate live aggregation state, so a malformed
// payload must not corrupt the sum: every payload is fully validated by a
// wire-byte scan (a few percent of tensor size; not a tensor-memory pass)
// before the first element of dst is touched. On error dst is unchanged.
//
// Zero runs skip memory. A run marker stands for k groups of m·0, and for
// every finite scale m·0 is ±0, whose addition leaves dst as it is:
// x + (−0) = x for every x, and x + (+0) = x for every x except −0, where
// (−0) + (+0) = +0. So a run only advances the write cursor, and the sweep
// reads and writes the non-zero groups alone — at the zero fractions 3LC
// runs at (0.998 on the end-to-end benchmark) that is the difference
// between streaming the whole tensor and touching a few cache lines. The
// skip is bit-identical to the dense add unless dst holds −0 under a
// +0 run, where dst keeps −0 and the dense add would have produced +0
// (the two compare == and differ in the sign bit only). The production
// destinations rule that corner out or bound it: a gradient sum never
// holds −0 (see ps.Job), a worker weight can only keep a −0 it was
// initialised or restored with, until its first non-zero update. A
// non-finite scale (±Inf, NaN: only an untrusted wire carries one) makes
// m·0 NaN, which must reach every element of the run, so that case alone
// keeps the dense fill.
//
// A sum the server rebuilds every step need not be zeroed either. The
// stamps of its Blocks record mark each BlockElems-element block that
// holds this step's data; a block without this step's stamp is dead and
// reads as +0, whatever its memory holds. The first literal group of a
// step to land in a dead block clears the block and stamps it, then adds,
// so the block holds +0 + M·q — what zeroing the whole sum and adding
// would have left there — and zero runs touch neither memory nor the
// record. No push zero-fills the sum, and the optimizer sweep after the
// pushes reads a shared zero block in place of every dead block's
// gradient (Blocks.SGDStep). A dense add — a non-finite scale here, a raw
// or packed wire in package compress — first clears the dead blocks and
// then stamps every block. The loop is the one above: each literal group
// compares its position with the end of the block it last entered, and
// only a group past it consults the record; without a record (nil) every
// block counts as live and nothing is cleared. Measured over the steps of
// one 5-second benchmark run (two workers, seed 1), a step's sums have
// 3.6 % of their blocks live on lan-3lc and 3.2 % on wan-3lc, where the
// record saves nearly the whole sum, and 97 % on tiny-stream, whose
// 2 304-element tensors are two blocks each and take nearly every push
// densely.
//
// The pass hook reports the elements of the blocks a literal group landed
// in — all of dst under a non-finite scale — so the count is what the
// decode actually touched.

// scanTernaryBody validates a ternary wire body against the group count a
// destination of gTotal groups requires, touching only the wire bytes:
// every byte must be legal and the payload must expand to exactly gTotal
// quartic groups.
//
//3lc:noalloc
//3lc:decode
func scanTernaryBody(body []byte, zre bool, gTotal int) error {
	if !zre {
		if len(body) != gTotal {
			return fmt.Errorf("kernel: quartic payload %d bytes, want %d", len(body), gTotal)
		}
		for off, b := range body {
			if b > encode.MaxQuartic {
				return fmt.Errorf("kernel: invalid quartic byte %d at offset %d", b, off)
			}
		}
		return nil
	}
	// Every token expands to at least one group, so the running group count
	// strictly increases and the payload is valid exactly when it ends on
	// gTotal: a run overrunning the end, or any token after the last group,
	// pushes the total past it. Between long-run tokens every byte is a
	// token, and summing them through a table validates without a branch per
	// byte (literals and short markers alternate unpredictably on real
	// wires); the walk below reruns only to name the offending offset.
	gi := 0
	for rest := body; len(rest) > 0; {
		i := bytes.IndexByte(rest, encode.LongRun)
		if i < 0 {
			gi += sumGroups(rest)
			break
		}
		gi += sumGroups(rest[:i])
		k, next := zeroRunAt(rest, i, gTotal-gi)
		if k == 0 {
			gi = -1
			break
		}
		gi, rest = gi+k, rest[next:]
	}
	if gi == gTotal {
		return nil
	}
	gi = 0
	for off := 0; off < len(body); {
		if body[off] > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, gTotal-gi)
			if k == 0 {
				return errZeroRun(off, gTotal-gi)
			}
			gi, off = gi+k, next
			continue
		}
		if gi >= gTotal {
			return fmt.Errorf("kernel: payload longer than %d groups", gTotal)
		}
		gi, off = gi+1, off+1
	}
	if gi != gTotal {
		return fmt.Errorf("kernel: payload expands to %d groups, want %d", gi, gTotal)
	}
	return nil
}

// sumGroups is scanTernaryBody's table sum over a stretch of one-byte
// tokens; inlined beside the token parse the same loop ran 2–3× slower.
//
//go:noinline
func sumGroups(tokens []byte) (gi int) {
	for _, b := range tokens {
		gi += int(zreGroups[b])
	}
	return gi
}

// DecodeTernaryAdd decodes a ternary wire body — quartic bytes, zero-run
// encoded when zre is set — and accumulates it into dst in a single fused
// pass: dst[i] += m·q_i. Literal groups take the exact float32 additions
// the staged composition (decode into scratch, then dst += scratch)
// performs element by element; zero runs are skipped when m·0 is ±0 and
// filled when it is NaN, so the resulting sums are bit-identical to the
// staged decode-then-add for any payload, including non-finite scales,
// provided dst holds no −0 under a run (see the file comment above:
// there dst keeps its −0 where the staged add yields +0). The payload is
// validated before accumulation begins; on error dst is unchanged. Every
// block of dst counts as live.
//
//3lc:noalloc
//3lc:decode
func DecodeTernaryAdd(body []byte, zre bool, m float32, dst []float32) error {
	var all *Blocks
	return all.DecodeTernaryAdd(body, zre, m, dst)
}

// DecodeTernaryAdd is the decode-add into a sum whose blocks x stamps: a
// dead block a literal group lands in is cleared and stamped before the
// add, and one no literal group reaches stays dead and untouched. A
// non-finite scale clears the dead blocks and marks every block live
// first, then adds densely. On error neither dst nor x changes.
//
//3lc:noalloc
//3lc:decode
func (x *Blocks) DecodeTernaryAdd(body []byte, zre bool, m float32, dst []float32) error {
	if err := scanTernaryBody(body, zre, encode.QuarticEncodedLen(len(dst))); err != nil {
		return err
	}
	addValidated(body, m, dst, x.forScale(m, dst))
	noteDecodeAdd(body, m, len(dst))
	return nil
}

// addValidated runs the fused accumulate pass over an already-validated
// payload, choosing the ScaledLUT or inline-multiply form by size.
func addValidated(body []byte, m float32, dst []float32, l *Blocks) {
	if len(dst) >= scaledLUTMinElems {
		lut := getLUT()
		lut.Build(m)
		addCore(body, &lut.tab, dst, l)
		putLUT(lut)
		return
	}
	addSmall(body, m, dst, l)
}

// addScaled accumulates a validated body through a prebuilt ScaledLUT into
// dst, a sum whose blocks l stamps. end is the end of the block the last
// literal group entered: a stretch of literal groups up to the next run or
// that end is one inner loop, so the record is consulted once a stretch
// and block, and a literal group costs what it did without one. This is
// the scalar tier; addScaledLits is the asm tier's form.
func addScaled(body []byte, tab *scaledTab, dst []float32, l *Blocks) {
	zero := tab[encode.ZeroGroupByte][0] // m·0: ±0, or NaN for a non-finite scale
	fill := zero != zero
	hi := len(dst)
	w, end, off := 0, 0, 0
	for w < hi {
		b := body[off]
		if b > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, math.MaxInt)
			runEnd := min(w+k*encode.GroupSize, hi)
			if fill {
				addFill(dst[w:runEnd], zero)
			}
			w, off = runEnd, next
			continue
		}
		if w >= end {
			end = l.enter(dst, w)
		}
		if end-w < encode.GroupSize { // the tensor's last group, partial
			off++
			for k := 0; w < hi; k, w = k+1, w+1 {
				dst[w] += tab[b][k]
			}
			continue
		}
		for w+encode.GroupSize <= end {
			b := body[off]
			if b > encode.MaxQuartic {
				break
			}
			off++
			row := &tab[b]
			d := dst[w : w+encode.GroupSize : w+encode.GroupSize]
			d[0] += row[0]
			d[1] += row[1]
			d[2] += row[2]
			d[3] += row[3]
			d[4] += row[4]
			w += encode.GroupSize
		}
	}
}

// addSmall is the small-tensor form of addScaled: ternLUT digits scaled by
// an inline multiply, the same single pass.
func addSmall(body []byte, m float32, dst []float32, l *Blocks) {
	zero := m * float32(0)
	fill := zero != zero
	hi := len(dst)
	w, end, off := 0, 0, 0
	for w < hi {
		b := body[off]
		if b > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, math.MaxInt)
			runEnd := min(w+k*encode.GroupSize, hi)
			if fill {
				addFill(dst[w:runEnd], zero)
			}
			w, off = runEnd, next
			continue
		}
		if w >= end {
			end = l.enter(dst, w)
		}
		if end-w < encode.GroupSize { // the tensor's last group, partial
			off++
			for k := 0; w < hi; k, w = k+1, w+1 {
				dst[w] += m * float32(ternLUT[b][k])
			}
			continue
		}
		for w+encode.GroupSize <= end {
			b := body[off]
			if b > encode.MaxQuartic {
				break
			}
			off++
			row := &ternLUT[b]
			d := dst[w : w+encode.GroupSize : w+encode.GroupSize]
			d[0] += m * float32(row[0])
			d[1] += m * float32(row[1])
			d[2] += m * float32(row[2])
			d[3] += m * float32(row[3])
			d[4] += m * float32(row[4])
			w += encode.GroupSize
		}
	}
}

// addFill is the dense zero-run add, dst[i] += v, kept for the one case
// the skip cannot cover: v = m·0 = NaN under a non-finite scale.
func addFill(dst []float32, v float32) {
	for i := range dst {
		dst[i] += v
	}
}

// nonFinite reports whether m·0 is NaN: m is ±Inf or NaN.
func nonFinite(m float32) bool {
	z := m * 0
	return z != z
}

// noteDecodeAdd reports the decode-add of one validated payload into an
// n-element destination to the pass hook: the elements of the blocks its
// literal groups land in, or all n under a non-finite scale, whose m·0
// reaches every element. The count walks the wire bytes again, so it runs
// only under a hook.
func noteDecodeAdd(body []byte, m float32, n int) {
	if PassHook == nil {
		return
	}
	touched := n
	if !nonFinite(m) {
		touched = 0
		for off, w, end := 0, 0, 0; off < len(body); {
			k, next := 1, off+1
			if body[off] > encode.MaxQuartic {
				k, next = zeroRunAt(body, off, math.MaxInt)
			} else if w >= end {
				lo := w - w%BlockElems
				end = min(lo+BlockElems, n)
				touched += end - lo
			}
			w, off = w+k*encode.GroupSize, next
		}
	}
	PassHook("lut-decode-add", touched)
}
