// Package tensor provides a dense float32 tensor type and the vectorizable
// bulk operations the 3LC compression pipeline and the neural-network
// substrate are built on.
//
// Tensors are row-major, contiguous, and intentionally minimal: the paper's
// compression schemes (3-value quantization, quartic encoding, zero-run
// encoding, sparsification) all operate on the flat element array, so the
// package favors flat []float32 access over fancy views. Shapes are carried
// for the benefit of the NN substrate and for wire-format framing.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float32 array with an attached shape.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape.
// A scalar is represented by an empty shape and one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is NOT
// copied; the tensor aliases it. The product of shape must equal len(data).
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: nil, data: []float32{v}}
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat element slice. Mutations are visible to
// the tensor; this is the primary access path for the compression pipeline.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal element count.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d != %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Resize re-views t at shape and returns t: the workspace idiom, where a
// tensor held by value is overwritten call after call. It allocates only
// when shape holds more elements than t's storage can (the new storage is
// zero-filled), so re-viewing at a smaller shape and back costs nothing.
// Otherwise the elements keep whatever values the storage held: a caller
// that accumulates into t clears it first.
func (t *Tensor) Resize(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in Resize", d))
		}
		n *= d
	}
	if cap(t.data) < n {
		t.data = make([]float32, n)
	}
	t.data = t.data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// ViewRows re-views t as rows [lo, hi) of src along its first dimension,
// sharing src's storage — nothing is copied — and returns t: Resize's
// workspace idiom, for walking a batch a few rows at a time. It allocates
// only while t's shape holds fewer dimensions than src's. The view's
// capacity ends at row hi, so a later Resize of t past it allocates
// instead of writing into src's other rows.
func (t *Tensor) ViewRows(src *Tensor, lo, hi int) *Tensor {
	if len(src.shape) == 0 || lo < 0 || hi < lo || hi > src.shape[0] {
		panic(fmt.Sprintf("tensor: rows [%d, %d) of shape %v", lo, hi, src.shape))
	}
	per := 1
	for _, d := range src.shape[1:] {
		per *= d
	}
	t.data = src.data[lo*per : hi*per : hi*per]
	t.shape = append(t.shape[:0], src.shape...)
	t.shape[0] = hi - lo
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a short human-readable description (shape + a few values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n > show {
		fmt.Fprintf(&b, " ... (%d total)", n)
	}
	b.WriteString("]")
	return b.String()
}

// --- Bulk arithmetic -------------------------------------------------------

// Add accumulates src into t element-wise: t += src.
func (t *Tensor) Add(src *Tensor) {
	a, b := t.data, src.data
	if len(a) != len(b) {
		panic("tensor: Add size mismatch")
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Sub subtracts src from t element-wise: t -= src.
func (t *Tensor) Sub(src *Tensor) {
	a, b := t.data, src.data
	if len(a) != len(b) {
		panic("tensor: Sub size mismatch")
	}
	for i := range a {
		a[i] -= b[i]
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AXPY computes t += alpha * src.
func (t *Tensor) AXPY(alpha float32, src *Tensor) {
	a, b := t.data, src.data
	if len(a) != len(b) {
		panic("tensor: AXPY size mismatch")
	}
	for i := range a {
		a[i] += alpha * b[i]
	}
}

// MaxAbs returns the maximum absolute value of the elements. For an empty
// tensor it returns 0.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// MeanAbs returns the average absolute value of the elements.
func (t *Tensor) MeanAbs() float64 {
	if len(t.data) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.data {
		s += math.Abs(float64(v))
	}
	return s / float64(len(t.data))
}

// Dot returns the inner product of t and o in float64.
func (t *Tensor) Dot(o *Tensor) float64 {
	a, b := t.data, o.data
	if len(a) != len(b) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// SquaredNorm returns the sum of squared elements in float64.
func (t *Tensor) SquaredNorm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return s
}

// CountZeros returns the number of exactly-zero elements.
func (t *Tensor) CountZeros() int {
	n := 0
	for _, v := range t.data {
		if v == 0 {
			n++
		}
	}
	return n
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] && !(math.IsNaN(float64(t.data[i])) && math.IsNaN(float64(o.data[i]))) {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether every element of t is within eps of o's.
func (t *Tensor) AlmostEqual(o *Tensor, eps float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		d := t.data[i] - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}
