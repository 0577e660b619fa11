package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV emitters for downstream plotting. Every table/figure result type has
// one writer; columns are stable and documented in the header row.

// WriteTable1CSV emits Table 1 rows.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "speedup_10mbps", "speedup_100mbps", "speedup_1gbps", "accuracy_pct", "diff_pct"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Design,
			f(r.Speedup["10 Mbps"]), f(r.Speedup["100 Mbps"]), f(r.Speedup["1 Gbps"]),
			f(r.Accuracy), f(r.Diff),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable2CSV emits Table 2 rows.
func WriteTable2CSV(w io.Writer, rows []Table2Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"s", "compression_ratio", "paper_spelling_ratio", "bits_per_state_change"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Label, f(r.CompressionRatio), f(r.PaperRatio), f(r.BitsPerChange)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCurvesCSV emits Figure 4/5/6/8 tradeoff curves.
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "budget_frac", "steps", "time_minutes", "accuracy_pct"}); err != nil {
		return err
	}
	for _, c := range curves {
		for _, p := range c.Points {
			rec := []string{c.Design, f(p.BudgetFrac), strconv.Itoa(p.Steps), f(p.TimeMinutes), f(p.Accuracy)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV emits Figure 7 loss/accuracy series (long format).
func WriteSeriesCSV(w io.Writer, series []TrainingSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "kind", "step", "value"}); err != nil {
		return err
	}
	for _, ts := range series {
		for i, s := range ts.Steps {
			if err := cw.Write([]string{ts.Design, "loss", strconv.Itoa(s), f(ts.Loss[i])}); err != nil {
				return err
			}
		}
		for _, e := range ts.Evals {
			if err := cw.Write([]string{ts.Design, "accuracy_pct", strconv.Itoa(e.Step), f(e.Accuracy * 100)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBitsCSV emits Figure 9 bits-per-state-change series.
func WriteBitsCSV(w io.Writer, series []BitsSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"sparsity", "step", "push_bits", "pull_bits", "no_zre_bits"}); err != nil {
		return err
	}
	for _, bs := range series {
		for i, s := range bs.Steps {
			rec := []string{f(bs.Sparsity), strconv.Itoa(s), f(bs.PushBits[i]), f(bs.PullBits[i]), f(bs.NoZREBits)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string {
	return fmt.Sprintf("%g", v)
}
