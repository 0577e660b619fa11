package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{0}, 0},
		{[]int{5}, 5},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Len() != c.want {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, tt.Len(), c.want)
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(0, 0) != 1 || tt.At(1, 2) != 6 {
		t.Errorf("FromSlice layout wrong: %v", tt)
	}
	// Aliasing: mutating the slice is visible.
	d[0] = 42
	if tt.At(0, 0) != 42 {
		t.Error("FromSlice should alias the input slice")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7, 1, 2)
	if tt.Data()[5] != 7 {
		t.Errorf("Set(1,2) should write flat index 5, data=%v", tt.Data())
	}
	if tt.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", tt.At(1, 2))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tt.At(2, 0)
}

func TestAtRankMismatchPanics(t *testing.T) {
	tt := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tt.At(1)
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Len() != 1 || s.Data()[0] != 3.5 {
		t.Errorf("Scalar broken: %v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Error("Clone must not alias")
	}
	if !b.SameShape(a) {
		t.Error("Clone must preserve shape")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.CopyFrom(b)
	if !a.Equal(b) {
		t.Errorf("CopyFrom: got %v want %v", a, b)
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := a.Reshape(2, 2)
	b.Set(9, 0, 1)
	if a.Data()[1] != 9 {
		t.Error("Reshape must share the backing array")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Reshape(3)
}

// TestResizeReusesStorage pins the workspace contract: the zero value
// grows zero-filled, a smaller shape re-views the same storage, and
// growing back within its capacity allocates nothing.
func TestResizeReusesStorage(t *testing.T) {
	var w Tensor
	a := w.Resize(3, 4)
	if a != &w || a.Len() != 12 || len(a.Shape()) != 2 || a.CountZeros() != 12 {
		t.Fatalf("Resize(3, 4) of the zero value: %v", a)
	}
	a.Fill(7)
	b := w.Resize(2, 2, 2)
	if b.Len() != 8 || len(b.Shape()) != 3 || &b.Data()[0] != &a.Data()[0] || b.Data()[0] != 7 {
		t.Fatalf("shrinking must re-view the same storage, values kept: %v", b)
	}
	if allocs := testing.AllocsPerRun(20, func() { w.Resize(12); w.Resize(1, 5) }); allocs != 0 {
		t.Errorf("Resize within capacity: %v allocs per run, want 0", allocs)
	}
	if c := w.Resize(13); c.Len() != 13 || c.Data()[12] != 0 || c.Data()[0] != 0 {
		t.Errorf("growing past capacity must give fresh zeroed storage: %v", c)
	}
}

func TestViewRowsSharesStorage(t *testing.T) {
	src := New(5, 2, 3)
	for i := range src.Data() {
		src.Data()[i] = float32(i)
	}
	var v Tensor
	r := v.ViewRows(src, 1, 3)
	if r != &v || r.Len() != 12 || len(r.Shape()) != 3 || r.Shape()[0] != 2 || r.Shape()[2] != 3 || &r.Data()[0] != &src.Data()[6] {
		t.Fatalf("rows [1, 3) of [5 2 3]: shape %v, %d elements", r.Shape(), r.Len())
	}
	if e := v.ViewRows(src, 5, 5); e.Len() != 0 || e.Shape()[0] != 0 {
		t.Errorf("rows [5, 5): shape %v, want 0 rows", e.Shape())
	}
	if allocs := testing.AllocsPerRun(20, func() { v.ViewRows(src, 0, 4) }); allocs != 0 {
		t.Errorf("ViewRows: %v allocs per run, want 0", allocs)
	}
	v.ViewRows(src, 0, 1).Resize(2, 2, 3).Fill(-1)
	if src.Data()[6] != 6 {
		t.Errorf("a Resize past the view's rows wrote into src: row 1 starts %v", src.Data()[6])
	}
	defer func() {
		if recover() == nil {
			t.Error("rows [4, 6) of 5 rows: no panic")
		}
	}()
	v.ViewRows(src, 4, 6)
}

func TestZeroFill(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	a.Zero()
	if a.Data()[0] != 0 || a.Data()[1] != 0 {
		t.Error("Zero failed")
	}
	a.Fill(2.5)
	if a.Data()[0] != 2.5 || a.Data()[1] != 2.5 {
		t.Error("Fill failed")
	}
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.Add(b)
	if a.Data()[2] != 33 {
		t.Errorf("Add: %v", a)
	}
	a.Sub(b)
	if a.Data()[2] != 3 {
		t.Errorf("Sub: %v", a)
	}
	a.Scale(2)
	if a.Data()[0] != 2 {
		t.Errorf("Scale: %v", a)
	}
	a.AXPY(0.5, b)
	if a.Data()[0] != 7 { // 2 + 0.5*10
		t.Errorf("AXPY: %v", a)
	}
}

func TestMismatchedArithmeticPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Add":  func() { New(2).Add(New(3)) },
		"Sub":  func() { New(2).Sub(New(3)) },
		"AXPY": func() { New(2).AXPY(1, New(3)) },
		"Dot":  func() { New(2).Dot(New(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 1, 2, 0}, 4)
	if a.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %v", a.MaxAbs())
	}
	if a.Sum() != 0 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.MeanAbs() != 1.5 {
		t.Errorf("MeanAbs = %v", a.MeanAbs())
	}
	if a.SquaredNorm() != 14 {
		t.Errorf("SquaredNorm = %v", a.SquaredNorm())
	}
	if a.CountZeros() != 1 {
		t.Errorf("CountZeros = %v", a.CountZeros())
	}
	b := FromSlice([]float32{1, 1, 1, 1}, 4)
	if a.Dot(b) != 0 {
		t.Errorf("Dot = %v", a.Dot(b))
	}
}

func TestMaxAbsEmpty(t *testing.T) {
	if New(0).MaxAbs() != 0 {
		t.Error("MaxAbs of empty tensor should be 0")
	}
	if New(0).MeanAbs() != 0 {
		t.Error("MeanAbs of empty tensor should be 0")
	}
}

func TestEqualAlmostEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.05}, 2)
	if a.Equal(b) {
		t.Error("Equal should be exact")
	}
	if !a.AlmostEqual(b, 0.1) {
		t.Error("AlmostEqual eps=0.1 should hold")
	}
	if a.AlmostEqual(b, 0.01) {
		t.Error("AlmostEqual eps=0.01 should fail")
	}
	if a.Equal(New(3)) {
		t.Error("different shapes are never Equal")
	}
}

func TestEqualNaN(t *testing.T) {
	a := FromSlice([]float32{float32(math.NaN())}, 1)
	b := FromSlice([]float32{float32(math.NaN())}, 1)
	if !a.Equal(b) {
		t.Error("NaN elements at same position should compare Equal (identity semantics)")
	}
}

func TestStringTruncation(t *testing.T) {
	a := New(100)
	s := a.String()
	if len(s) == 0 || len(s) > 200 {
		t.Errorf("String() should be short, got %d chars", len(s))
	}
}

// Property: MaxAbs is an upper bound for |v| of every element.
func TestMaxAbsIsBoundProperty(t *testing.T) {
	f := func(vals []float32) bool {
		tt := FromSlice(vals, len(vals))
		m := tt.MaxAbs()
		for _, v := range vals {
			if float32(math.Abs(float64(v))) > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a.AXPY(alpha, b) equals elementwise a + alpha*b.
func TestAXPYLinearityProperty(t *testing.T) {
	f := func(seed uint64, alpha float32) bool {
		if math.IsNaN(float64(alpha)) || math.IsInf(float64(alpha), 0) {
			return true
		}
		rng := NewRNG(seed)
		a := New(64)
		b := New(64)
		FillNormal(a, 1, rng)
		FillNormal(b, 1, rng)
		want := make([]float32, 64)
		for i := range want {
			want[i] = a.Data()[i] + alpha*b.Data()[i]
		}
		a.AXPY(alpha, b)
		for i := range want {
			if a.Data()[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
