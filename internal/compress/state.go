package compress

import (
	"fmt"

	"threelc/internal/kernel"
	"threelc/internal/tensor"
)

// Stateful is implemented by compression contexts that carry mutable
// cross-step state — error-accumulation buffers, RNG streams, step
// counters. The paper's correctness argument (§3.1: unsent changes are
// retried at later steps) lives in exactly this state, so a fault-tolerant
// deployment must checkpoint it alongside the model: restoring a context
// with RestoreState makes every subsequent wire message bit-identical to
// the uninterrupted context's. Stateless schemes (raw floats, 8-bit int)
// simply do not implement the interface.
type Stateful interface {
	// AppendState appends the context's full mutable state to dst and
	// returns the extended slice.
	AppendState(dst []byte) []byte
	// RestoreState replaces the context's mutable state with one captured
	// by AppendState on an identically-configured context (same scheme,
	// shape, and options). Malformed input returns an error and must never
	// panic; on error the context's prior state is preserved.
	RestoreState(src []byte) error
}

// --- shared state-blob helpers ---------------------------------------------

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	le.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// restoreF32s fills dst from exactly 4*len(dst) little-endian bytes,
// returning the remaining input. The floats are staged nowhere: callers
// must only commit after the full blob validates, so they pass scratch or
// validate total length first.
func restoreF32s(src []byte, dst []float32) ([]byte, error) {
	need := 4 * len(dst)
	if len(src) < need {
		return nil, fmt.Errorf("compress: state blob truncated (%d of %d float bytes)", len(src), need)
	}
	kernel.RawGet(dst, src[:need])
	return src[need:], nil
}

// appendRNGState serializes r's full stream position (tensor.RNGStateLen
// bytes, the layout owned by tensor.RNG).
func appendRNGState(dst []byte, r *tensor.RNG) []byte {
	return r.AppendState(dst)
}

const rngStateLen = tensor.RNGStateLen

// restoreRNGState restores a stream position captured by appendRNGState,
// returning the remaining input.
func restoreRNGState(src []byte, r *tensor.RNG) ([]byte, error) {
	if len(src) < rngStateLen {
		return nil, fmt.Errorf("compress: state blob truncated (%d of %d RNG bytes)", len(src), rngStateLen)
	}
	if err := r.RestoreState(src[:rngStateLen]); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	return src[rngStateLen:], nil
}

// --- per-scheme implementations --------------------------------------------

// 3LC: the error-accumulation buffer is the whole state (the |max| scale
// is recomputed per step).
func (c *threeLCCompressor) AppendState(dst []byte) []byte {
	return kernel.AppendRaw(dst, c.acc)
}

func (c *threeLCCompressor) RestoreState(src []byte) error {
	if len(src) != 4*c.n {
		return fmt.Errorf("compress: 3LC state %d bytes, want %d", len(src), 4*c.n)
	}
	_, err := restoreF32s(src, c.acc)
	return err
}

// Stochastic ternary: unbiased, so no accumulation buffer — but the RNG
// stream position decides every quantization draw.
func (c *stochCompressor) AppendState(dst []byte) []byte {
	return appendRNGState(dst, c.rng)
}

func (c *stochCompressor) RestoreState(src []byte) error {
	if len(src) != rngStateLen {
		return fmt.Errorf("compress: stoch state %d bytes, want %d", len(src), rngStateLen)
	}
	_, err := restoreRNGState(src, c.rng)
	return err
}

// MQE 1-bit: error-feedback buffer.
func (c *oneBitCompressor) AppendState(dst []byte) []byte {
	return kernel.AppendRaw(dst, c.acc.Buffer().Data())
}

func (c *oneBitCompressor) RestoreState(src []byte) error {
	if len(src) != 4*c.n {
		return fmt.Errorf("compress: 1-bit state %d bytes, want %d", len(src), 4*c.n)
	}
	_, err := restoreF32s(src, c.acc.Buffer().Data())
	return err
}

// Top-k sparsification: error-accumulation buffer plus the threshold-
// sampling RNG stream.
func (c *topKCompressor) AppendState(dst []byte) []byte {
	dst = kernel.AppendRaw(dst, c.acc.Buffer().Data())
	return appendRNGState(dst, c.sp.RNG())
}

func (c *topKCompressor) RestoreState(src []byte) error {
	if len(src) != 4*c.n+rngStateLen {
		return fmt.Errorf("compress: top-k state %d bytes, want %d", len(src), 4*c.n+rngStateLen)
	}
	// Restore the RNG first: it is the only part that can still fail
	// (corrupt flag byte), and it validates before committing, so a bad
	// blob leaves the context fully untouched.
	if _, err := restoreRNGState(src[4*c.n:], c.sp.RNG()); err != nil {
		return err
	}
	_, err := restoreF32s(src, c.acc.Buffer().Data())
	return err
}

// Local steps: accumulated unsent changes plus the interval phase.
func (c *localStepsCompressor) AppendState(dst []byte) []byte {
	dst = kernel.AppendRaw(dst, c.acc.Buffer().Data())
	return appendU64(dst, uint64(c.step))
}

func (c *localStepsCompressor) RestoreState(src []byte) error {
	if len(src) != 4*c.n+8 {
		return fmt.Errorf("compress: local-steps state %d bytes, want %d", len(src), 4*c.n+8)
	}
	rest, err := restoreF32s(src, c.acc.Buffer().Data())
	if err != nil {
		return err
	}
	c.step = int(le.Uint64(rest))
	return nil
}
