package kernel

import (
	"bytes"
	"fmt"
	"math"
	"sync"

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
// Unlike DecodeTernary, whose destination is unspecified on error, the
// decode-ADD kernels mutate live aggregation state, so a malformed
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
// the staged composition (DecodeTernary into scratch, then dst += scratch)
// performs element by element; zero runs are skipped when m·0 is ±0 and
// filled when it is NaN, so the resulting sums are bit-identical to the
// staged decode-then-add for any payload, including non-finite scales,
// provided dst holds no −0 under a run (see the file comment above:
// there dst keeps its −0 where the staged add yields +0). The payload is
// validated before accumulation begins; on error dst is unchanged.
//
//3lc:noalloc
//3lc:decode
func DecodeTernaryAdd(body []byte, zre bool, m float32, dst []float32) error {
	if err := scanTernaryBody(body, zre, encode.QuarticEncodedLen(len(dst))); err != nil {
		return err
	}
	notePass("lut-decode-add", len(dst))
	addValidated(body, m, dst)
	return nil
}

// addValidated runs the fused accumulate pass over an already-validated
// payload, choosing the ScaledLUT or inline-multiply form by size exactly
// like DecodeTernary.
func addValidated(body []byte, m float32, dst []float32) {
	if len(dst) >= scaledLUTMinElems {
		l := lutPool.Get().(*ScaledLUT)
		l.Build(m)
		addSpanCore(body, &l.tab, dst, 0, len(dst), 0, 0)
		lutPool.Put(l)
		return
	}
	addSmallSpan(body, m, dst, 0, len(dst), 0, 0)
}

// addScaledSpan accumulates the span dst[lo:hi) of a validated body
// through a prebuilt ScaledLUT: decoding starts at body[off], whose first
// skip groups belong to the preceding span (skip is non-zero only when a
// zero run straddles a span boundary). Serial callers pass the full range
// with off = skip = 0. This is the scalar tier; addScaledSpanLits is the
// asm tier's form.
func addScaledSpan(body []byte, tab *scaledTab, dst []float32, lo, hi, off, skip int) {
	zero := tab[encode.ZeroGroupByte][0] // m·0: ±0, or NaN for a non-finite scale
	fill := zero != zero
	w := lo
	for w < hi {
		b := body[off]
		if b > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, math.MaxInt)
			end := min(w+(k-skip)*encode.GroupSize, hi)
			if fill {
				addFill(dst[w:end], zero)
			}
			w, off, skip = end, next, 0
			continue
		}
		off++
		skip = 0
		row := &tab[b]
		if w+encode.GroupSize <= hi {
			d := dst[w : w+encode.GroupSize : w+encode.GroupSize]
			d[0] += row[0]
			d[1] += row[1]
			d[2] += row[2]
			d[3] += row[3]
			d[4] += row[4]
			w += encode.GroupSize
		} else {
			for k := 0; w < hi; k, w = k+1, w+1 {
				dst[w] += row[k]
			}
		}
	}
}

// addSmallSpan is the small-tensor form of addScaledSpan: ternLUT digits
// scaled by an inline multiply, the same single pass.
func addSmallSpan(body []byte, m float32, dst []float32, lo, hi, off, skip int) {
	zero := m * float32(0)
	fill := zero != zero
	w := lo
	for w < hi {
		b := body[off]
		if b > encode.MaxQuartic {
			k, next := zeroRunAt(body, off, math.MaxInt)
			end := min(w+(k-skip)*encode.GroupSize, hi)
			if fill {
				addFill(dst[w:end], zero)
			}
			w, off, skip = end, next, 0
			continue
		}
		off++
		skip = 0
		row := &ternLUT[b]
		if w+encode.GroupSize <= hi {
			dst[w] += m * float32(row[0])
			dst[w+1] += m * float32(row[1])
			dst[w+2] += m * float32(row[2])
			dst[w+3] += m * float32(row[3])
			dst[w+4] += m * float32(row[4])
			w += encode.GroupSize
		} else {
			for k := 0; w < hi; k, w = k+1, w+1 {
				dst[w] += m * float32(row[k])
			}
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

// TernaryWire is one worker's ternary payload for the batched
// decode-accumulate kernel: the wire body plus the header fields the
// accumulation needs.
type TernaryWire struct {
	Body []byte
	ZRE  bool
	M    float32
}

// wireEntry is one payload's decode entry point for one span: the byte
// offset at which the span's first group is produced, plus how many of
// that byte's groups belong to the preceding span (non-zero only when a
// zero run straddles the boundary).
type wireEntry struct {
	off  int
	skip int
}

// DecodeTernaryAddParallel accumulates every payload of wires into dst,
// range-partitioned: [0, len(dst)) is split into group-aligned spans and
// each goroutine owns one span across ALL payloads, accumulating them in
// slice order. No two goroutines touch the same element — no locks — and
// every dst[i] receives its contributions in exactly the serial payload
// order, so the sums are byte-identical to looping DecodeTernaryAdd over
// wires for any worker count. A per-payload wire-byte pre-scan locates
// each span's entry offset (and validates, so on error dst is untouched);
// the accumulate side still sweeps tensor memory exactly once per
// payload. workers <= 1, a small destination, or a single span fall back
// to the serial kernel.
func DecodeTernaryAddParallel(wires []TernaryWire, dst []float32, workers int) error {
	n := len(dst)
	gTotal := encode.QuarticEncodedLen(n)
	for wi := range wires {
		if err := scanTernaryBody(wires[wi].Body, wires[wi].ZRE, gTotal); err != nil {
			return fmt.Errorf("kernel: payload %d: %w", wi, err)
		}
	}
	for range wires {
		notePass("lut-decode-add", n)
	}
	if n == 0 || len(wires) == 0 {
		return nil
	}
	bounds := spanBounds(n, encode.GroupSize, workers)
	if workers <= 1 || n < scaledLUTMinElems || len(bounds) <= 2 {
		for wi := range wires {
			addValidated(wires[wi].Body, wires[wi].M, dst)
		}
		return nil
	}

	spans := len(bounds) - 1
	ents := make([]wireEntry, len(wires)*spans)
	luts := make([]*ScaledLUT, len(wires))
	for wi := range wires {
		buildEntries(wires[wi].Body, bounds, ents[wi*spans:(wi+1)*spans])
		luts[wi] = lutPool.Get().(*ScaledLUT)
		luts[wi].Build(wires[wi].M)
	}
	var wg sync.WaitGroup
	for s := 0; s < spans; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := bounds[s], bounds[s+1]
			for wi := range wires {
				e := ents[wi*spans+s]
				addSpanCore(wires[wi].Body, &luts[wi].tab, dst, lo, hi, e.off, e.skip)
			}
		}(s)
	}
	wg.Wait()
	for _, l := range luts {
		lutPool.Put(l)
	}
	return nil
}

// buildEntries walks one validated payload's wire bytes once and records,
// for every span start in bounds (all but the final boundary), where its
// decoding begins.
func buildEntries(body []byte, bounds []int, out []wireEntry) {
	j := 0
	gi := 0
	for off := 0; off < len(body); {
		k, next := 1, off+1
		if body[off] > encode.MaxQuartic {
			k, next = zeroRunAt(body, off, math.MaxInt)
		}
		for j < len(out) && bounds[j]/encode.GroupSize < gi+k {
			out[j] = wireEntry{off: off, skip: bounds[j]/encode.GroupSize - gi}
			j++
		}
		gi, off = gi+k, next
	}
}

// spanBounds splits [0, n) into at most `workers` contiguous spans whose
// interior boundaries are multiples of align, returning the offsets
// [0, b1, ..., n]. It is the boundary computation behind forEachChunk,
// exposed separately for callers that need the boundaries ahead of the
// fan-out (the decode-add entry-point pre-scan).
func spanBounds(n, align, workers int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	if align < 1 {
		align = 1
	}
	groups := (n + align - 1) / align
	if workers > groups {
		workers = groups
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, 1, workers+1)
	per, rem := groups/workers, groups%workers
	lo := 0
	for g := 0; g < workers; g++ {
		cnt := per
		if g < rem {
			cnt++
		}
		hi := lo + cnt*align
		if hi > n {
			hi = n
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	return bounds
}
