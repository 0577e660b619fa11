package nn

import (
	"testing"

	"threelc/internal/tensor"
)

// TestCorrectMatchesWholeBatch holds the chunked evaluator to one
// whole-batch forward: after a few training steps (so batch norm's running
// statistics are not their initial values), every EvalRows chunk's logits
// equal the whole batch's rows bit for bit, Correct counts every row
// against the whole batch's own argmax, and against random labels it
// counts what the whole batch's argmax does. 301 rows is not a multiple of
// EvalRows.
func TestCorrectMatchesWholeBatch(t *testing.T) {
	for _, c := range workspaceCases() {
		t.Run(c.name, func(t *testing.T) {
			m := c.build()
			for s := uint64(0); s < 3; s++ {
				x, labels := c.batch(8, 10+s)
				m.TrainStep(x, labels)
			}
			for _, n := range []int{300, 301} {
				x, labels := c.batch(n, uint64(n))
				whole := m.Net.Forward(x, false).Clone()
				argmax, hits := make([]int, n), 0
				for r := range argmax {
					row := whole.Data()[r*c.classes : (r+1)*c.classes]
					for j := range row {
						if row[j] > row[argmax[r]] {
							argmax[r] = j
						}
					}
					if argmax[r] == labels[r] {
						hits++
					}
				}

				var view tensor.Tensor
				for lo := 0; lo < n; lo += EvalRows {
					hi := min(lo+EvalRows, n)
					got := m.Net.Forward(view.ViewRows(x, lo, hi), false).Data()
					if j := firstDiff(got, whole.Data()[lo*c.classes:hi*c.classes]); j >= 0 {
						t.Fatalf("%d rows: chunk [%d, %d) logits differ from the whole batch's at %d", n, lo, hi, j)
					}
				}
				if got := m.Correct(x, argmax); got != n {
					t.Errorf("%d rows: %d rows' chunked argmax match the whole batch's", n, got)
				}
				if got := m.Correct(x, labels); got != hits {
					t.Errorf("%d rows: Correct = %d against random labels, the whole batch scores %d", n, got, hits)
				}
			}
		})
	}
}
