package encode

import (
	"testing"
	"testing/quick"
)

func TestBitmapSetGet(t *testing.T) {
	m := NewBitmap(20)
	m.Set(0)
	m.Set(7)
	m.Set(8)
	m.Set(19)
	for i := 0; i < 20; i++ {
		want := i == 0 || i == 7 || i == 8 || i == 19
		if m.Get(i) != want {
			t.Errorf("Get(%d) = %v, want %v", i, m.Get(i), want)
		}
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d", m.Count())
	}
}

func TestBitmapSizeBytes(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {8, 1}, {9, 2}, {64, 8}, {65, 9}}
	for _, c := range cases {
		if got := BitmapSizeBytes(c.n); got != c.want {
			t.Errorf("BitmapSizeBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBitmapFromBytesValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong byte count")
		}
	}()
	BitmapFromBytes(make([]byte, 2), 20)
}

func TestBitmapRoundTripThroughBytes(t *testing.T) {
	m := NewBitmap(13)
	m.Set(3)
	m.Set(12)
	m2 := BitmapFromBytes(m.Bytes(), 13)
	if !m2.Get(3) || !m2.Get(12) || m2.Get(0) {
		t.Error("bitmap bytes round trip failed")
	}
}

// Property: Count equals the number of distinct Set indices.
func TestBitmapCountProperty(t *testing.T) {
	f := func(idx []uint8) bool {
		m := NewBitmap(256)
		distinct := make(map[int]bool)
		for _, i := range idx {
			m.Set(int(i))
			distinct[int(i)] = true
		}
		return m.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmapReset(t *testing.T) {
	m := NewBitmap(100)
	for i := 0; i < 100; i += 3 {
		m.Set(i)
	}
	m.Reset()
	if m.Count() != 0 {
		t.Errorf("Count after Reset = %d", m.Count())
	}
	if m.Len() != 100 {
		t.Errorf("Len changed by Reset: %d", m.Len())
	}
}
