// Command bench is the repository's benchmark: it measures the wall time
// of real BSP training steps over real loopback TCP, on four workloads
// that each stress a different layer of the push/pull path, counts it in
// reference operations measured between the steps so that the shared
// host's changing speed drops out, and attributes it to the layers from
// outside — spans around the calls into each layer, byte timestamps from a
// counting connection, and replay of captured gradients and wires through
// the layers' exported functions. It is itself the worker driver and
// reaches the program only through public constructors. README.md explains
// the workloads, the metrics and how the two relate; BENCHMARK.json at the
// repository root fixes the names, units and regression bounds.
//
// One invocation runs one workload once, as the contract in
// BENCHMARK.json's command describes:
//
//	bench --workload lan-3lc --seed 1 --seconds 15 --trace 0   # end-to-end metrics
//	bench --workload lan-3lc --seed 1 --seconds 15 --trace 1   # per-layer metrics
//
// and prints the result as one JSON object on the last line of standard
// output. Without --workload it drives itself once per workload and pass
// (each in a fresh process, so peak memory is per workload):
//
//	bench                # every workload, timed then traced, one table
//	bench -aa            # A/A: the timed pass in two sets, differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run once; empty runs them all in child processes")
		seed     = flag.Uint64("seed", 1, "seed of the timed passes' dataset, model initialisation and batch samplers")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		traceOn  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "a few steps per pass instead of a timed run (what the tests use)")
		out      = flag.String("out", "", "also write the full report (metrics, checks, sample counts, host) to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file")
		aa       = flag.Bool("aa", false, "A/A mode: run the timed pass in two sets and compare them against the bounds")
		spec     = flag.String("spec", "BENCHMARK.json", "with -aa, the file holding the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *name == "" {
		d := driver{seed: *seed, seconds: *seconds, smoke: *smoke, out: *out}
		var err error
		if *aa {
			err = d.aa(*spec)
		} else {
			err = d.all()
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	wl := findWorkload(*name)
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	opts := runOptions{wl: wl, seed: *seed, seconds: *seconds, trace: *traceOn != 0, traceOut: *traceOut}
	if *smoke {
		opts.steps = smokeSteps
	}
	res, err := runWorkload(opts)
	if err != nil {
		fatal(err)
	}
	report, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, string(report))
	if *out != "" {
		if err := os.WriteFile(*out, append(report, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// smokeSteps is the timed step count of a -smoke pass.
const smokeSteps = 8

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
