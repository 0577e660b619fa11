package quant

import "threelc/internal/tensor"

// ErrorAccumulator implements the per-tensor error-accumulation buffer of
// §3.1 (Figure 3). It is shared by 3LC, MQE 1-bit, sparsification, and the
// multi-local-step baseline: each training step the caller
//
//  1. accumulates the new input into the buffer (step 1 in Fig. 3),
//  2. produces a lossy approximation of the buffered sum,
//  3. calls Residual with the local dequantization of what was actually
//     sent (steps a-b in Fig. 3), leaving buffer = sum - sent, the
//     quantization error to be corrected at later steps.
type ErrorAccumulator struct {
	buf *tensor.Tensor
}

// NewErrorAccumulator creates a zeroed accumulation buffer with the given
// shape.
func NewErrorAccumulator(shape ...int) *ErrorAccumulator {
	return &ErrorAccumulator{buf: tensor.New(shape...)}
}

// Accumulate adds in to the buffer and returns the buffered sum
// (input + accumulated error). The returned tensor aliases the internal
// buffer; callers must not retain it past the following Residual call.
func (e *ErrorAccumulator) Accumulate(in *tensor.Tensor) *tensor.Tensor {
	e.buf.Add(in)
	return e.buf
}

// Residual subtracts the locally dequantized transmission from the buffer,
// leaving the quantization error for future correction.
func (e *ErrorAccumulator) Residual(sent *tensor.Tensor) {
	e.buf.Sub(sent)
}

// Buffer exposes the internal buffer (for tests and metrics).
func (e *ErrorAccumulator) Buffer() *tensor.Tensor { return e.buf }

// Reset zeroes the accumulated error.
func (e *ErrorAccumulator) Reset() { e.buf.Zero() }
