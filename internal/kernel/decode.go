package kernel

import (
	"fmt"
	"math"
	"sync"

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

// lutPool recycles ScaledLUTs (~4.8 KB each) across decode calls so the
// steady-state pull path allocates nothing; the cached-M check inside
// Build makes reuse with a repeated scale free.
var lutPool = sync.Pool{New: func() any { return new(ScaledLUT) }}

// DecodeTernary decodes a ternary wire body — quartic bytes, zero-run
// encoded when zre is set — into dst in a single fused pass: each wire
// byte is either expanded from a run marker into scaled zeros or looked up
// in the LUT and streamed into dst as five scaled floats (dst[i] = m·q).
// It never reads or writes any intermediate buffer.
//
// The body is untrusted network data, so like encode.QuarticDecodeScaledInto
// the kernel returns errors instead of panicking: a payload whose group
// count does not expand to exactly len(dst) values (truncated, overlong,
// or a run overrunning the end), or — without zre — a byte above
// encode.MaxQuartic, is rejected. On error dst's contents are unspecified;
// validation happens in the same pass that decodes.
//
//3lc:noalloc
//3lc:decode
func DecodeTernary(body []byte, zre bool, m float32, dst []float32) error {
	n := len(dst)
	notePass("lut-decode", n)
	gTotal := encode.QuarticEncodedLen(n)
	if !zre && len(body) != gTotal {
		return fmt.Errorf("kernel: quartic payload %d bytes, want %d", len(body), gTotal)
	}
	if n >= scaledLUTMinElems {
		l := lutPool.Get().(*ScaledLUT)
		l.Build(m)
		err := decodeCore(body, zre, &l.tab, gTotal, dst)
		lutPool.Put(l)
		return err
	}
	return decodeSmall(body, zre, m, gTotal, dst)
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

// zeroRunStretch measures the maximal stretch of consecutive zero-run
// tokens starting at body[off] (itself a marker): the number of groups the
// stretch expands to and the offset of the first byte after it, each token
// checked against the gTotal − gi groups still missing. Decode-set
// coalesces the stretch into one write — the encoder spells a run of
// 14q+r as two tokens, and one clear over both beats one per token.
//
//3lc:noalloc
//3lc:decode
func zeroRunStretch(body []byte, off, gi, gTotal int) (groups, next int, err error) {
	for next = off; next < len(body) && body[next] > encode.MaxQuartic; {
		k, after := zeroRunAt(body, next, gTotal-gi-groups)
		if k == 0 {
			return 0, 0, errZeroRun(next, gTotal-gi-groups)
		}
		groups, next = groups+k, after
	}
	return groups, next, nil
}

// setZeroRun writes a decoded zero run, dst[i] = m·0. When m·0 has the
// bit pattern of +0 — every scale a real encoder emits — that is one
// clear; a negative scale must still write −0 and a non-finite one NaN,
// exactly what the staged multiply produces, so those keep the fill.
//
//3lc:noalloc
func setZeroRun(dst []float32, zero float32) {
	if math.Float32bits(zero) == 0 {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = zero
	}
}

// decodeScaled is the scalar-tier ScaledLUT decode loop.
//
//3lc:noalloc
//3lc:decode
func decodeScaled(body []byte, zre bool, tab *scaledTab, gTotal int, dst []float32) error {
	n := len(dst)
	zero := tab[encode.ZeroGroupByte][0] // m·0, NaN-propagating like the staged multiply
	gi, w := 0, 0
	for off := 0; off < len(body); {
		b := body[off]
		if b > encode.MaxQuartic {
			if !zre {
				return fmt.Errorf("kernel: invalid quartic byte %d at offset %d", b, off)
			}
			k, next, err := zeroRunStretch(body, off, gi, gTotal)
			if err != nil {
				return err
			}
			gi += k
			end := min(w+k*encode.GroupSize, n)
			setZeroRun(dst[w:end], zero)
			w, off = end, next
			continue
		}
		if gi >= gTotal {
			return fmt.Errorf("kernel: payload longer than %d groups", gTotal)
		}
		gi++
		row := &tab[b]
		if w+encode.GroupSize <= n {
			dst[w] = row[0]
			dst[w+1] = row[1]
			dst[w+2] = row[2]
			dst[w+3] = row[3]
			dst[w+4] = row[4]
			w += encode.GroupSize
		} else {
			for k := 0; w < n; k, w = k+1, w+1 {
				dst[w] = row[k]
			}
		}
		off++
	}
	if gi != gTotal {
		return fmt.Errorf("kernel: payload expands to %d groups, want %d", gi, gTotal)
	}
	return nil
}

// decodeSmall is the small-tensor decode loop: same single pass, ternLUT
// digits scaled by an inline multiply instead of a prebuilt ScaledLUT.
//
//3lc:noalloc
//3lc:decode
func decodeSmall(body []byte, zre bool, m float32, gTotal int, dst []float32) error {
	n := len(dst)
	zero := m * float32(0)
	gi, w := 0, 0
	for off := 0; off < len(body); {
		b := body[off]
		if b > encode.MaxQuartic {
			if !zre {
				return fmt.Errorf("kernel: invalid quartic byte %d at offset %d", b, off)
			}
			k, next, err := zeroRunStretch(body, off, gi, gTotal)
			if err != nil {
				return err
			}
			gi += k
			end := min(w+k*encode.GroupSize, n)
			setZeroRun(dst[w:end], zero)
			w, off = end, next
			continue
		}
		if gi >= gTotal {
			return fmt.Errorf("kernel: payload longer than %d groups", gTotal)
		}
		gi++
		row := &ternLUT[b]
		if w+encode.GroupSize <= n {
			dst[w] = m * float32(row[0])
			dst[w+1] = m * float32(row[1])
			dst[w+2] = m * float32(row[2])
			dst[w+3] = m * float32(row[3])
			dst[w+4] = m * float32(row[4])
			w += encode.GroupSize
		} else {
			for k := 0; w < n; k, w = k+1, w+1 {
				dst[w] = m * float32(row[k])
			}
		}
		off++
	}
	if gi != gTotal {
		return fmt.Errorf("kernel: payload expands to %d groups, want %d", gi, gTotal)
	}
	return nil
}
