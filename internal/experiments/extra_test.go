package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestArchitectureContrast(t *testing.T) {
	rows := ArchitectureContrast(4)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	res, vgg := rows[0], rows[1]
	if !strings.Contains(res.Name, "ResNet") || !strings.Contains(vgg.Name, "VGG") {
		t.Fatalf("unexpected row order: %q, %q", res.Name, vgg.Name)
	}
	// The paper's §5.2 claim: VGG-style nets have a much larger
	// parameter-to-computation ratio.
	if vgg.BytesPerComputeMs <= res.BytesPerComputeMs {
		t.Errorf("VGG bytes/ms (%v) should exceed ResNet's (%v)",
			vgg.BytesPerComputeMs, res.BytesPerComputeMs)
	}
	if vgg.Params <= res.Params {
		t.Errorf("VGG params (%d) should exceed ResNet's (%d)", vgg.Params, res.Params)
	}
	var buf bytes.Buffer
	PrintArchitectureContrast(&buf, rows)
	if !strings.Contains(buf.String(), "VGGNano") {
		t.Error("printed output missing VGG row")
	}
}

func TestGradientStatistics(t *testing.T) {
	s := tinySuite()
	rows, err := GradientStatistics(s, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no sampled rows")
	}
	for _, r := range rows {
		if r.QuantZeroFrac < 0 || r.QuantZeroFrac > 1 {
			t.Errorf("step %d: zero frac %v", r.Step, r.QuantZeroFrac)
		}
		if r.PredictedZRERatio < 1 {
			t.Errorf("step %d: predicted ratio %v below 1", r.Step, r.PredictedZRERatio)
		}
		if r.MeasuredBits <= 0 || r.MeasuredBits > 1.7 {
			t.Errorf("step %d: measured bits %v", r.Step, r.MeasuredBits)
		}
		if r.Summary.N == 0 {
			t.Errorf("step %d: empty summary", r.Step)
		}
	}
	var buf bytes.Buffer
	PrintGradStats(&buf, rows, 1.0)
	if !strings.Contains(buf.String(), "quant-zeros") {
		t.Error("printed output missing header")
	}
}

func TestCSVWriters(t *testing.T) {
	s := tinySuite()

	t1, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, t1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(t1)+1 {
		t.Errorf("table1 csv has %d lines, want %d", len(lines), len(t1)+1)
	}
	if !strings.HasPrefix(lines[0], "design,speedup_10mbps") {
		t.Errorf("table1 csv header: %q", lines[0])
	}

	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTable2CSV(&buf, t2); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 6 {
		t.Errorf("table2 csv has %d lines", got)
	}

	curves, err := Figure8(s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 4*4+1 {
		t.Errorf("curves csv has %d lines", got)
	}

	series7, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteSeriesCSV(&buf, series7); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "accuracy_pct") {
		t.Error("series csv missing accuracy rows")
	}

	series9, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteBitsCSV(&buf, series9); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "sparsity,step,push_bits") {
		t.Error("bits csv header wrong")
	}
}
