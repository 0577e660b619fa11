// Package encode implements the lossless transformations of the 3LC paper:
// quartic encoding (§3.2), which packs five ternary digits into one byte,
// and zero-run encoding (§3.3), a run-length encoder specialized to
// quartic-encoded data, in one spelling: §3.3's run bytes plus a long-run
// token for runs of 14 groups and up (zerorun.go). It also provides the
// bitmap wire format used by the sparsification baselines (§5.1).
//
// Every transformation has an allocation-free form that operates on
// caller-provided buffers — QuarticEncodeInto, QuarticDecodeInto,
// QuarticDecodeScaledInto, ZeroRunEncodeAppend, ZeroRunDecodeInto — so a
// steady-state compression pipeline can recycle its buffers across training
// steps and keep the per-step allocation count at zero.
//
// Like package quant, these staged transforms are the reference
// implementation: the production ternary hot path runs internal/kernel's
// fused forms (quantize+pack+zero-run in one compress loop, LUT-driven
// expand+unpack+scale in one decode loop), which are differential-tested
// and fuzzed against the functions here for byte-identical wires.
package encode

import "fmt"

// Quartic-encoding constants.
const (
	// GroupSize is the number of ternary values folded into one byte.
	GroupSize = 5
	// MaxQuartic is the largest byte value quartic encoding produces:
	// 2*81 + 2*27 + 2*9 + 2*3 + 2 = 242. Values 243-255 are reserved for
	// zero-run encoding.
	MaxQuartic = 242
	// ZeroGroupByte is the quartic encoding of five zeros
	// (1*81 + 1*27 + 1*9 + 1*3 + 1): the byte zero-run encoding targets.
	ZeroGroupByte = 121
)

// QuarticEncode packs a ternary tensor q (values in {-1,0,1}) into bytes,
// five values per byte (1.6 bits per value). The input length need not be a
// multiple of five; the final group is implicitly zero-padded, matching the
// padding step of §3.2. The original length must be carried out-of-band
// (the wire format in package compress records it).
func QuarticEncode(q []int8) []byte {
	out := make([]byte, (len(q)+GroupSize-1)/GroupSize)
	QuarticEncodeInto(q, out)
	return out
}

// QuarticEncodeInto packs q into dst, which must have length
// ceil(len(q)/5). It returns the number of bytes written.
//
//3lc:noalloc
func QuarticEncodeInto(q []int8, dst []byte) int {
	n := (len(q) + GroupSize - 1) / GroupSize
	if len(dst) < n {
		panic(fmt.Sprintf("encode: quartic dst too small: %d < %d", len(dst), n))
	}
	// Full groups: unrolled hot loop, no bounds surprises.
	full := len(q) / GroupSize
	for g := 0; g < full; g++ {
		i := g * GroupSize
		a := uint16(q[i] + 1)
		b := uint16(q[i+1] + 1)
		c := uint16(q[i+2] + 1)
		d := uint16(q[i+3] + 1)
		e := uint16(q[i+4] + 1)
		dst[g] = byte(a*81 + b*27 + c*9 + d*3 + e)
	}
	// Trailing partial group, zero-padded (digit value 1 = ternary zero).
	if full < n {
		var digits [GroupSize]uint16
		for k := range digits {
			digits[k] = 1 // ternary 0 after the +1 shift
		}
		for k, i := 0, full*GroupSize; i < len(q); k, i = k+1, i+1 {
			digits[k] = uint16(q[i] + 1)
		}
		dst[full] = byte(digits[0]*81 + digits[1]*27 + digits[2]*9 + digits[3]*3 + digits[4])
	}
	return n
}

// QuarticDecode unpacks quartic-encoded bytes into n ternary values.
// It panics if the encoded data is too short for n values or contains a
// byte above MaxQuartic (which indicates un-decoded zero-run bytes).
func QuarticDecode(enc []byte, n int) []int8 {
	out := make([]int8, n)
	QuarticDecodeInto(enc, out)
	return out
}

// QuarticDecodeInto unpacks enc into dst (len(dst) ternary values).
//
//3lc:noalloc
func QuarticDecodeInto(enc []byte, dst []int8) {
	n := len(dst)
	need := (n + GroupSize - 1) / GroupSize
	if len(enc) < need {
		panic(fmt.Sprintf("encode: quartic input too short: %d bytes for %d values", len(enc), n))
	}
	full := n / GroupSize
	for g := 0; g < full; g++ {
		v := enc[g]
		if v > MaxQuartic {
			panic(fmt.Sprintf("encode: byte %d > 242 in quartic data (zero-run not decoded?)", v))
		}
		i := g * GroupSize
		dst[i+4] = int8(v%3) - 1
		v /= 3
		dst[i+3] = int8(v%3) - 1
		v /= 3
		dst[i+2] = int8(v%3) - 1
		v /= 3
		dst[i+1] = int8(v%3) - 1
		v /= 3
		dst[i] = int8(v) - 1
	}
	if full < need {
		v := enc[full]
		if v > MaxQuartic {
			panic(fmt.Sprintf("encode: byte %d > 242 in quartic data", v))
		}
		var digits [GroupSize]int8
		digits[4] = int8(v % 3)
		v /= 3
		digits[3] = int8(v % 3)
		v /= 3
		digits[2] = int8(v % 3)
		v /= 3
		digits[1] = int8(v % 3)
		v /= 3
		digits[0] = int8(v)
		for k, i := 0, full*GroupSize; i < n; k, i = k+1, i+1 {
			dst[i] = digits[k] - 1
		}
	}
}

// QuarticDecodeScaledInto unpacks enc directly into float32 values,
// multiplying each ternary digit by scale: dst[i] = scale * q[i]. This is
// the fused form of QuarticDecodeInto + dequantization that the compress
// package's ternary decoder runs on untrusted wire data, so instead of
// panicking it returns an error when enc is too short or contains a byte
// above MaxQuartic (un-decoded zero-run data), validating in the same pass
// that decodes.
func QuarticDecodeScaledInto(enc []byte, dst []float32, scale float32) error {
	n := len(dst)
	need := (n + GroupSize - 1) / GroupSize
	if len(enc) < need {
		return fmt.Errorf("encode: quartic input too short: %d bytes for %d values", len(enc), n)
	}
	full := n / GroupSize
	for g := 0; g < full; g++ {
		v := enc[g]
		if v > MaxQuartic {
			return fmt.Errorf("encode: invalid quartic byte %d at offset %d", v, g)
		}
		i := g * GroupSize
		dst[i+4] = scale * float32(int8(v%3)-1)
		v /= 3
		dst[i+3] = scale * float32(int8(v%3)-1)
		v /= 3
		dst[i+2] = scale * float32(int8(v%3)-1)
		v /= 3
		dst[i+1] = scale * float32(int8(v%3)-1)
		v /= 3
		dst[i] = scale * float32(int8(v)-1)
	}
	if full < need {
		v := enc[full]
		if v > MaxQuartic {
			return fmt.Errorf("encode: invalid quartic byte %d at offset %d", v, full)
		}
		var digits [GroupSize]int8
		digits[4] = int8(v % 3)
		v /= 3
		digits[3] = int8(v % 3)
		v /= 3
		digits[2] = int8(v % 3)
		v /= 3
		digits[1] = int8(v % 3)
		v /= 3
		digits[0] = int8(v)
		for k, i := 0, full*GroupSize; i < n; k, i = k+1, i+1 {
			dst[i] = scale * float32(digits[k]-1)
		}
	}
	return nil
}

// QuarticEncodedLen returns the number of bytes quartic encoding produces
// for n ternary values.
func QuarticEncodedLen(n int) int {
	return (n + GroupSize - 1) / GroupSize
}
