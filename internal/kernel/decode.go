package kernel

import (
	"fmt"
	"math"

	"threelc/internal/encode"
)

// ternLUT maps each valid quartic byte (0..242) to its five shifted-back
// ternary digits in {-1, 0, +1}: the decode side's 243-entry lookup table.
// Built once at init from the same base-3 digit extraction the staged
// decoder performs per byte. The table is padded to 256 rows (run-marker
// rows stay zero and are never decoded from) so byte-indexed lookups need
// no bounds check and the vector tiers' 16-byte row loads stay in bounds.
var ternLUT [256][encode.GroupSize]int8

// zreGroups maps a one-byte token to the number of quartic groups it
// expands to: 1 for a literal, 2..13 for a run marker (encode.LongRun's row
// is unused).
var zreGroups [256]uint8

func init() {
	for b := range zreGroups {
		zreGroups[b] = 1
		if b > encode.MaxQuartic {
			zreGroups[b] = uint8(b - encode.RunBase + 2)
		}
	}
	for b := 0; b <= encode.MaxQuartic; b++ {
		v := byte(b)
		ternLUT[b][4] = int8(v%3) - 1
		v /= 3
		ternLUT[b][3] = int8(v%3) - 1
		v /= 3
		ternLUT[b][2] = int8(v%3) - 1
		v /= 3
		ternLUT[b][1] = int8(v%3) - 1
		v /= 3
		ternLUT[b][0] = int8(v) - 1
	}
}

// ScaledLUT is the per-M float32 expansion of ternLUT: tab[b][k] =
// M · ternLUT[b][k], so the decode loop copies five ready floats per wire
// byte with no per-element multiply. Build costs 243·5 multiplies, so the
// fused decoder only uses it for tensors comfortably above that size
// (scaledLUTMinElems) and caches the last M (by bit pattern — scales from
// untrusted wires can be NaN) to skip rebuilds when M repeats.
type ScaledLUT struct {
	mbits uint32
	valid bool
	// tab is padded to 256 rows like ternLUT (see scaledTab).
	tab scaledTab
}

// Build populates the table for scale m, skipping the work when the table
// already holds exactly this scale.
func (l *ScaledLUT) Build(m float32) {
	bits := math.Float32bits(m)
	if l.valid && l.mbits == bits {
		return
	}
	for b := range l.tab {
		for k := 0; k < encode.GroupSize; k++ {
			l.tab[b][k] = m * float32(ternLUT[b][k])
		}
	}
	l.mbits = bits
	l.valid = true
}

// scaledLUTMinElems is the tensor size above which building the per-M
// ScaledLUT (243·5 multiplies) amortizes; smaller tensors decode through
// ternLUT with an inline multiply instead, which is the same single pass.
const scaledLUTMinElems = 4096

// luts recycles ScaledLUTs (~4.8 KB each) across decode calls so the
// steady-state decode path allocates nothing at any GOMAXPROCS; the
// cached-M check inside Build makes reuse with a repeated scale free. It
// is a bounded free list, not a sync.Pool: a pool empties at every GC
// cycle and keeps its last table in the P that put it, so a decode whose
// goroutine has moved to another P would build a fresh one.
var luts = make(chan *ScaledLUT, 64)

// getLUT takes a table from luts, or a fresh one when none is free.
func getLUT() *ScaledLUT {
	select {
	case l := <-luts:
		return l
	default:
		return new(ScaledLUT)
	}
}

// putLUT returns l to luts, dropping it when the list is full.
func putLUT(l *ScaledLUT) {
	select {
	case luts <- l:
	default:
	}
}

// zeroRunAt reads the zero-run token at body[off], a byte above
// encode.MaxQuartic — the one place the kernel reads encode's grammar:
// 243..254 stand for 2..13 zero groups, encode.LongRun and the uvarint e
// after it for 14·(1+e). It returns the group count and the next token's
// offset, or zero groups (errZeroRun) when the uvarint is cut short or
// overlong or the token expands past room, the groups still missing —
// compared in int64, which 14·2^35 cannot overflow; walkers of a validated
// body pass math.MaxInt. Kept small enough to inline into their loops.
//
//3lc:noalloc
//3lc:decode
func zeroRunAt(body []byte, off, room int) (groups, next int) {
	g := int64(body[off]) - (encode.RunBase - 2)
	off++
	if g == encode.RunUnit {
		for s := 0; ; s += 7 {
			if off >= len(body) || s == 7*encode.MaxRunVarint {
				return 0, off
			}
			c := body[off]
			off++
			g += encode.RunUnit * int64(c&0x7f) << s
			if c < 0x80 {
				break
			}
		}
	}
	if g > int64(room) {
		return 0, off
	}
	return int(g), off
}

func errZeroRun(off, room int) error {
	return fmt.Errorf("kernel: zero-run token at offset %d is cut short, overlong or expands past the %d groups left", off, room)
}
