package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// driver runs the benchmark over every workload by starting itself once
// per workload and pass, so each measurement has a process — and a peak
// memory — of its own.
type driver struct {
	seed    uint64
	seconds float64
	smoke   bool
	out     string
}

// child runs one workload once in a fresh process and returns its report.
func (d driver) child(wl string, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bench-child")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	report := filepath.Join(dir, "report.json")
	args := []string{
		"--workload", wl,
		"--seed", strconv.FormatUint(d.seed, 10),
		"--seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--out", report,
	}
	if d.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	// The child's own chatter is dropped; its report file says it all. A
	// failed verification exits 1 with the report written; anything else
	// is the child's fault to explain.
	runErr := cmd.Run()
	data, err := os.ReadFile(report)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s trace=%d: %w", wl, trace, runErr)
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s trace=%d: %w", wl, trace, err)
	}
	return &res, nil
}

// all prints every metric of every workload: the timed pass, then the
// traced pass.
func (d driver) all() error {
	var reports []*result
	ok := true
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := d.child(wl.Name, trace)
			if err != nil {
				return err
			}
			reports = append(reports, res)
			fmt.Printf("\n%s  trace=%d  seed=%d  correct=%v  attempted=%d  failed=%d\n",
				wl.Name, trace, d.seed, res.Correct, res.Attempted, res.Failed)
			for _, def := range defs {
				if m, found := res.Metrics[def.Name]; found {
					fmt.Printf("  %-34s %14.6g %s\n", def.Name, m.Value, m.Unit)
				}
			}
			for _, c := range res.Checks {
				if !c.OK {
					fmt.Printf("  FAILED: %s (%s)\n", c.Name, c.Detail)
				}
			}
			for _, why := range res.Unresolved {
				fmt.Printf("  UNRESOLVED: %s\n", why)
			}
			ok = ok && res.Correct
		}
	}
	if d.out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(d.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("verification failed")
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the A/A mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exact are the end-to-end metrics that are counts over the quality pass's
// fixed inputs: any two runs must report the very same values.
var exact = map[string]bool{"wire_bytes_per_step": true, "final_loss": true, "test_acc": true}

// aaRuns is the number of runs in each of the two A/A sets.
const aaRuns = 3

// aa runs the timed pass of every workload in two interleaved sets on the
// same code and seed, and holds the sets' medians against the bounds.
func (d driver) aa(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	failed := false
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		var unresolved []string
		for i := 0; i < 2*aaRuns; i++ {
			res, err := d.child(wl.Name, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: verification failed", wl.Name)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
			for _, why := range res.Unresolved {
				unresolved = append(unresolved, fmt.Sprintf("run %d, %s", i+1, why))
			}
		}
		fmt.Printf("\n%s  (%d runs per set, seed %d)\n", wl.Name, aaRuns, d.seed)
		fmt.Printf("  %-22s %14s %14s %9s %9s %7s  %s\n", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" && worse != 0 {
				worse = -worse
			}
			sp := math.Max(rangeShare(a), rangeShare(b))
			verdict := "ok"
			switch {
			case exact[m.Name]:
				if sp != 0 || worse != 0 {
					verdict, failed = "DIFFERS (must be identical in every run)", true
				}
			case len(unresolved) > 0 && m.Name != "peak_rss_mb":
				// The host interfered: neither agreement nor disagreement
				// of the timings says anything about the code.
				verdict = "unresolved (host, see below)"
			case sp > m.Bound:
				// The sets' own noise is wider than the bound: the
				// comparison cannot say the sets agree.
				verdict = "unresolved (spread exceeds bound)"
			case math.Abs(worse) > m.Bound:
				verdict, failed = "PAST BOUND", true
			}
			fmt.Printf("  %-22s %14.10g %14.10g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
				m.Name, ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
		for _, why := range unresolved {
			fmt.Printf("  unresolved: %s\n", why)
		}
	}
	if failed {
		return fmt.Errorf("A/A sets disagree past a bound")
	}
	return nil
}

// rangeShare is the full range of xs as a share of their median: the
// spread measure for the handful of runs an A/A set holds.
func rangeShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) == 0 {
		return 0
	}
	return (percentile(xs, 100) - percentile(xs, 0)) / math.Abs(m)
}
