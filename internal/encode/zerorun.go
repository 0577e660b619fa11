package encode

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Zero-run encoding constants. A run of consecutive ZeroGroupByte values is
// spelled in tokens: bytes RunBase..254 keep §3.3's meaning, a run of
// 2..13, and LongRun is followed by a uvarint e and stands for
// RunUnit·(1+e). §3.3's own code stops at 14 groups a byte (255 alone), so
// a long zero stretch is a chain of 0xFF there and one token here;
// ZeroRunPaperLen gives the length the paper's spelling would have had.
const (
	// RunBase is the first byte value reserved for zero runs (243).
	RunBase = MaxQuartic + 1
	// LongRun is the long-run token byte.
	LongRun = 255
	// RunUnit is the run length a bare LongRun (e = 0) stands for, one
	// more than the longest single-byte run: 243..254 encode runs of 2..13.
	RunUnit = 2 + (LongRun - RunBase)
	// MaxRunVarint bounds the uvarint after LongRun: e < 2^35.
	MaxRunVarint = 5
)

// ZeroRunEncode compresses quartic-encoded data by replacing consecutive
// runs of the zero-group byte (121) with run tokens. The emission is
// greedy and unique: a run of 14q+r is one LongRun token when q > 0,
// then one byte in [243, 254] when r >= 2 or a literal 121 when r == 1.
// All other byte values (0-242) are copied verbatim, so the transform is
// byte-aligned and never expands its input.
func ZeroRunEncode(in []byte) []byte {
	// Worst case: no runs, output length == input length.
	return ZeroRunEncodeAppend(make([]byte, 0, len(in)), in)
}

// ZeroRunEncodeAppend appends the zero-run encoding of in to dst and
// returns the extended slice. Steady-state callers that recycle dst across
// calls (dst[:0]) pay no allocation once its capacity has converged.
func ZeroRunEncodeAppend(dst, in []byte) []byte {
	i := 0
	for i < len(in) {
		b := in[i]
		if b != ZeroGroupByte {
			dst = append(dst, b)
			i++
			continue
		}
		// Count the run of 121s.
		j := i + 1
		for j < len(in) && in[j] == ZeroGroupByte {
			j++
		}
		run := j - i
		if q := run / RunUnit; q > 0 {
			dst = binary.AppendUvarint(append(dst, LongRun), uint64(q-1))
			run -= q * RunUnit
		}
		if run >= 2 {
			dst = append(dst, byte(RunBase+run-2))
		} else if run == 1 {
			dst = append(dst, ZeroGroupByte)
		}
		i = j
	}
	return dst
}

// zeroRunToken reads the token at in[i]: the number of quartic bytes it
// stands for and the index of the token after it. n is -1 when a LongRun
// token is cut short, runs past MaxRunVarint bytes or overflows int.
func zeroRunToken(in []byte, i int) (n, next int) {
	b := in[i]
	if b < RunBase {
		return 1, i + 1
	}
	if b < LongRun {
		return int(b) - RunBase + 2, i + 1
	}
	e, w := binary.Uvarint(in[i+1 : min(len(in), i+1+MaxRunVarint)])
	if w <= 0 || e >= math.MaxInt/RunUnit {
		return -1, len(in)
	}
	return RunUnit * (1 + int(e)), i + 1 + w
}

// ZeroRunDecode expands zero-run-encoded data back to pure quartic bytes.
// It is the staged reference for streams this package encoded: it sizes
// its output from the tokens and panics on a malformed stream, so
// untrusted data goes through ZeroRunDecodedLen first.
func ZeroRunDecode(in []byte) []byte {
	out := make([]byte, max(ZeroRunDecodedLen(in), 0))
	ZeroRunDecodeInto(in, out)
	return out
}

// ZeroRunDecodedLen returns the exact number of bytes ZeroRunDecode would
// produce, without allocating, or -1 for a malformed stream (see
// zeroRunToken) or one whose length overflows int. Decoders use it to
// validate untrusted payloads before expansion.
func ZeroRunDecodedLen(in []byte) int {
	n := 0
	for i := 0; i < len(in); {
		k, next := zeroRunToken(in, i)
		if k < 0 || n > math.MaxInt-k {
			return -1
		}
		n, i = n+k, next
	}
	return n
}

// ZeroRunPaperLen returns the length §3.3's capped spelling — one byte per
// 14 groups of a long run — would have used for the stream wire encodes,
// or -1 for a malformed stream: arithmetic over the tokens, no allocation.
// A LongRun token counts 1+e bytes against the 1+len(uvarint e) emitted:
// one byte short of len(wire) for each bare LongRun (a run of 14..27),
// ahead of it from runs of 42 up.
func ZeroRunPaperLen(wire []byte) int {
	n := 0
	for i := 0; i < len(wire); {
		k, next := zeroRunToken(wire, i)
		if k < 0 {
			return -1
		}
		if wire[i] == LongRun {
			n += k / RunUnit
		} else {
			n++
		}
		i = next
	}
	return n
}

// ZeroRunDecodeInto expands in into dst and returns the number of bytes
// produced. It panics if dst is too small or in is malformed, so callers
// must size dst from the known decoded length (ZeroRunDecodedLen, or the
// wire format).
//
//3lc:noalloc
func ZeroRunDecodeInto(in []byte, dst []byte) int {
	n := 0
	for i := 0; i < len(in); {
		k, next := zeroRunToken(in, i)
		if k < 0 || k > len(dst)-n {
			panic(fmt.Sprintf("encode: zero-run token at %d malformed or overflows %d-byte buffer", i, len(dst)))
		}
		for j := n; j < n+k; j++ {
			dst[j] = ZeroGroupByte
		}
		if k == 1 {
			dst[n] = in[i]
		}
		n, i = n+k, next
	}
	return n
}
