package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program name the same workloads and metrics, and
// the file stays inside the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if w.Why != workloads[i].Why {
			t.Errorf("workload %q: reason differs between BENCHMARK.json and the program", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}

	same := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			use(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: unit %q does not match %v", kind, m.Name, m.Unit, unitRE)
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s, %s], the program %s [%s, %s]", kind, i,
					m.Name, m.Unit, m.Better, want[i].Name, want[i].Unit, want[i].Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %q: bound must be in (0, 0.25]", kind, m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// Every workload runs at smoke scale, timed and traced: every metric
// BENCHMARK.json names for the pass is printed and finite, the outputs
// verify, and the step ledger accounts for the step.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for i := range workloads {
		wl := &workloads[i]
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res, err := runWorkload(runOptions{wl: wl, seed: 7, steps: smokeSteps, trace: trace == 1})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%d: check %q failed: %s", wl.Name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s not printed", wl.Name, trace, m.Name)
					continue
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %v", wl.Name, trace, m.Name, got.Value)
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed in %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if trace == 0 && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
			if trace == 1 {
				if u := res.Metrics["ledger.unattributed_frac"].Value; u > 0.05 {
					t.Errorf("%s: %.1f%% of the step is not attributed to any layer, want <= 5%%", wl.Name, 100*u)
				}
			}
		}
	}
}

// Which steps are captured for replay depends on the workload's fixed span
// alone once the pass is at least that long, so counts over the captured
// wires repeat on a host that fits more or fewer steps into the run.
func TestCaptureIndices(t *testing.T) {
	for _, tc := range []struct {
		warm, steps, span, capture int
		want                       []int
	}{
		{warm: 10, steps: 40, span: 40, capture: 16, want: []int{10, 12, 15, 17, 20, 22, 25, 27, 30, 32, 35, 37, 40, 42, 45, 47}},
		{warm: 10, steps: 140, span: 40, capture: 16, want: []int{10, 12, 15, 17, 20, 22, 25, 27, 30, 32, 35, 37, 40, 42, 45, 47}},
		{warm: 10, steps: 9999, span: 40, capture: 16, want: []int{10, 12, 15, 17, 20, 22, 25, 27, 30, 32, 35, 37, 40, 42, 45, 47}},
		{warm: 10, steps: 31, span: 7, capture: 16, want: []int{10, 11, 12, 13, 14, 15, 16}},
		{warm: 2, steps: 8, span: 200, capture: 16, want: []int{2, 3, 4, 5, 6, 7, 8, 9}},
		{warm: 2, steps: 8, span: 200, capture: 2, want: []int{2, 6}},
		{warm: 2, steps: 0, span: 40, capture: 16, want: []int{}},
	} {
		got := captureIndices(tc.warm, tc.steps, tc.span, tc.capture)
		if len(got) != len(tc.want) {
			t.Errorf("captureIndices(%d, %d, %d, %d) = %v, want %v", tc.warm, tc.steps, tc.span, tc.capture, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("captureIndices(%d, %d, %d, %d) = %v, want %v", tc.warm, tc.steps, tc.span, tc.capture, got, tc.want)
				break
			}
		}
	}
}

// The workers of a pass compute in worker order, one at a time, meet at the
// barrier, and are all released for good when one of them fails.
func TestLockstep(t *testing.T) {
	l := newLockstep()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	clock := func() int64 { return 42 }
	for w := numWorkers - 1; w >= 0; w-- {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for step := 0; step < 3; step++ {
				if err := l.awaitTurn(w); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, w)
				mu.Unlock()
				l.passTurn()
				if at, err := l.barrier(clock); err != nil || at != 42 {
					t.Errorf("barrier: %d, %v", at, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, w := range order {
		if w != i%numWorkers {
			t.Fatalf("computed in order %v, want worker order in every step", order)
		}
	}

	released := make(chan error, 2)
	go func() { released <- l.awaitTurn(1) }()
	go func() { _, err := l.barrier(clock); released <- err }()
	time.Sleep(10 * time.Millisecond)
	l.abort()
	for i := 0; i < 2; i++ {
		select {
		case err := <-released:
			if err != errPeerFailed {
				t.Errorf("released with %v, want errPeerFailed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not release a waiting worker")
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{3}, 50, 3},
		{[]float64{3}, 90, 3},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 90, 90},
		{[]float64{0, 10}, 90, 9},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name:  "leaf",
			spans: []span{{Start: 10, End: 30, Parent: -1}},
			want:  []int64{20},
		},
		{
			name: "disjoint children",
			spans: []span{
				{Start: 0, End: 100, Parent: -1},
				{Start: 10, End: 30, Parent: 0},
				{Start: 50, End: 90, Parent: 0},
			},
			want: []int64{40, 20, 40},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{Start: 0, End: 100, Parent: -1},
				{Start: 10, End: 60, Parent: 0},
				{Start: 40, End: 80, Parent: 0},
			},
			want: []int64{30, 50, 40},
		},
		{
			name: "child clipped to its parent",
			spans: []span{
				{Start: 20, End: 50, Parent: -1},
				{Start: 0, End: 30, Parent: 0},
				{Start: 45, End: 70, Parent: 0},
			},
			want: []int64{15, 30, 25},
		},
		{
			name: "grandchildren do not reduce the root",
			spans: []span{
				{Start: 0, End: 100, Parent: -1},
				{Start: 0, End: 50, Parent: 0},
				{Start: 10, End: 20, Parent: 1},
			},
			want: []int64{50, 40, 10},
		},
		{
			name: "nested child inside a sibling",
			spans: []span{
				{Start: 0, End: 100, Parent: -1},
				{Start: 10, End: 90, Parent: 0},
				{Start: 20, End: 30, Parent: 0},
			},
			want: []int64{20, 80, 10},
		},
	} {
		selfTimes(tc.spans)
		for i, s := range tc.spans {
			if s.Self != tc.want[i] {
				t.Errorf("%s: span %d self = %d, want %d", tc.name, i, s.Self, tc.want[i])
			}
		}
	}
}
