package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"strings"
	"testing"

	"threelc/internal/nn"
	"threelc/internal/tensor"
)

// goldenModel is a seeded MLP whose every parameter and batch-norm
// statistic is then overwritten with values derived by exact arithmetic
// from the integer stream of tensor.RNG — no transcendental, nothing a
// platform may round differently — with −0, a NaN, an infinity and a
// denormal planted in the first tensor, which is also larger than one
// float chunk of Save.
func goldenModel() *nn.Model {
	m := nn.NewMLP(70, []int{90, 33}, 10, 1)
	rng := tensor.NewRNG(2024)
	for _, p := range m.Params() {
		d := p.W.Data()
		for i := range d {
			d[i] = float32(rng.Uint64()%(1<<24))/(1<<20) - 8
		}
	}
	d := m.Params()[0].W.Data()
	d[0], d[1] = math.Float32frombits(1<<31), math.Float32frombits(0x7fc00123)
	d[2], d[3] = float32(math.Inf(-1)), math.Float32frombits(1)
	nn.Walk(m.Net, func(l nn.Layer) {
		if mean, variance, ok := bnStats(l); ok {
			for i := range mean {
				mean[i] = float64(rng.Uint64()%(1<<40))/(1<<30) - 512
				variance[i] = float64(rng.Uint64()%(1<<40)) / (1 << 36)
			}
		}
	})
	return m
}

// goldenSHA256 is the digest of Save(goldenModel()) computed at the commit
// before Save moved its float sections through the kernel's raw cores
// (one binary.Write per value then): the file format did not change by a
// byte.
const (
	goldenLen    = 42080
	goldenSHA256 = "7254e6d3cb2b146aa8f81d9c7266d46128a95353bd50699e3328c7a5ea1cba3a"
)

func TestSaveGoldenBytes(t *testing.T) {
	if len(goldenModel().Params()[0].W.Data()) <= floatChunk {
		t.Fatal("golden model's first tensor no longer spans two float chunks")
	}
	var buf bytes.Buffer
	if err := Save(&buf, goldenModel()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != goldenLen || got != goldenSHA256 {
		t.Fatalf("Save wrote %d bytes, sha256 %s; want %d bytes, %s", buf.Len(), got, goldenLen, goldenSHA256)
	}
	// And Load reads those bytes back bit for bit, specials included.
	dst := nn.NewMLP(70, []int{90, 33}, 10, 99)
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Save(&again, dst); err != nil {
		t.Fatal(err)
	}
	if sum2 := sha256.Sum256(again.Bytes()); sum2 != sum {
		t.Fatal("Save∘Load∘Save changed the bytes")
	}
}

// TestSaveAllocsIndependentOfModelSize pins what the chunk buffer buys:
// Save allocates its writer, its buffer and a few small slices — not one
// value per float, which is what a per-element binary.Write costs.
func TestSaveAllocsIndependentOfModelSize(t *testing.T) {
	m := goldenModel()
	allocs := testing.AllocsPerRun(10, func() {
		if err := Save(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("Save of a %d-tensor model allocates %.0f times, want a small constant", len(m.Params()), allocs)
	}
}

// TestLoadTruncatedFloatSectionNamesParameter cuts a checkpoint inside the
// second float chunk of its first tensor and inside its last tensor: the
// error names the parameter, and the model is untouched.
func TestLoadTruncatedFloatSectionNamesParameter(t *testing.T) {
	src := goldenModel()
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	params := src.Params()
	first, last := params[0], params[len(params)-1]
	// Offsets inside the two sections: the first tensor's data starts
	// after magic, count, name length, name, rank and dims.
	firstData := 8 + 4 + 2 + len(first.Name) + 1 + 4*len(first.W.Shape())
	lastData := bytes.LastIndex(raw, []byte(last.Name)) + len(last.Name) + 1 + 4*len(last.W.Shape())
	for _, tc := range []struct {
		cut  int
		name string
	}{
		{firstData + 4*floatChunk + 6, first.Name},
		{firstData + 4*floatChunk, first.Name}, // exactly on the chunk boundary
		{lastData + 4*last.W.Len() - 1, last.Name},
	} {
		dst := nn.NewMLP(70, []int{90, 33}, 10, 99)
		before := dst.Params()[0].W.Clone()
		err := Load(bytes.NewReader(raw[:tc.cut]), dst)
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut at %d: error %v does not name truncated parameter %q", tc.cut, err, tc.name)
		}
		if !dst.Params()[0].W.Equal(before) {
			t.Errorf("cut at %d: failed Load modified the model", tc.cut)
		}
	}
}

// BenchmarkCheckpointSave measures one snapshot of the end-to-end
// benchmark's 1.85M-parameter MLP — what train.captureRunState pays per
// replica at a step boundary.
func BenchmarkCheckpointSave(b *testing.B) {
	m := nn.NewMLP(768, []int{1024, 1024}, 10, 1)
	b.SetBytes(4 * int64(m.NumParams()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}
