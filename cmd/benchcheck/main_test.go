package main

import (
	"fmt"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: threelc/internal/compress
cpu: some cpu
BenchmarkCompressInto3LC-8   	     100	    123456 ns/op	       0 B/op	       0 allocs/op
BenchmarkCompressIntoInt8-8  	     200	     65432 ns/op	  33.95 MB/s	       0 B/op	       0 allocs/op
BenchmarkAllocatesALot-8     	      50	    999999 ns/op	    4096 B/op	      12 allocs/op
BenchmarkNoMemFlag-8         	     300	      1111 ns/op
PASS
ok  	threelc/internal/compress	1.234s
`

func TestParse(t *testing.T) {
	benches, failed, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("sample has no FAIL lines")
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(benches))
	}
	b := benches[0]
	if b.Name != "BenchmarkCompressInto3LC-8" || b.Iterations != 100 ||
		b.NsPerOp != 123456 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("bench 0 parsed as %+v", b)
	}
	if got := benches[1].Extra["MB/s"]; got != 33.95 {
		t.Errorf("custom metric MB/s = %v, want 33.95", got)
	}
	if benches[2].AllocsPerOp != 12 {
		t.Errorf("allocs = %d, want 12", benches[2].AllocsPerOp)
	}
	if benches[3].AllocsPerOp != -1 || benches[3].BytesPerOp != -1 {
		t.Errorf("missing -benchmem must parse as -1, got %+v", benches[3])
	}
}

func TestParseDetectsFailures(t *testing.T) {
	for _, in := range []string{
		"--- FAIL: TestX (0.01s)\n",
		"FAIL\n",
		"FAIL\tthreelc/internal/ps\t0.1s\n",
	} {
		if _, failed, _ := Parse(strings.NewReader(in)); !failed {
			t.Errorf("input %q not flagged as failed", in)
		}
	}
	if _, failed, _ := Parse(strings.NewReader("PASS\nok x 1s\n")); failed {
		t.Error("passing input flagged as failed")
	}
}

func TestCheckZeroAllocGate(t *testing.T) {
	benches, _, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}

	if v := Check(benches, "CompressInto"); len(v) != 0 {
		t.Errorf("clean steady-state benches violated: %v", v)
	}
	// An allocating bench under the pattern must violate.
	if v := Check(benches, "CompressInto|AllocatesALot"); len(v) != 1 ||
		!strings.Contains(v[0], "12 allocs/op") {
		t.Errorf("allocating bench not caught: %v", v)
	}
	// A bench without -benchmem data cannot prove the property.
	if v := Check(benches, "NoMemFlag"); len(v) != 1 ||
		!strings.Contains(v[0], "-benchmem") {
		t.Errorf("missing allocs metric not caught: %v", v)
	}
	// The gate must not silently match nothing.
	if v := Check(benches, "Renamed"); len(v) != 1 ||
		!strings.Contains(v[0], "matched no benchmarks") {
		t.Errorf("empty match not caught: %v", v)
	}
	// The pattern matches from the start of the name.
	if v := Check(benches, "IntoInt8"); len(v) != 1 ||
		!strings.Contains(v[0], "matched no benchmarks") {
		t.Errorf("pattern matched inside a name: %v", v)
	}
	// No pattern, no gate.
	if v := Check(benches, ""); v != nil {
		t.Errorf("empty pattern produced violations: %v", v)
	}
}

const speedupSample = `BenchmarkFusedCompress/1M-1     100  2000000 ns/op  0 B/op  0 allocs/op
BenchmarkFusedCompress/1M-4     100  1500000 ns/op  0 B/op  0 allocs/op
BenchmarkStagedCompress/1M-1    100  9000000 ns/op  0 B/op  0 allocs/op
BenchmarkStagedCompress/1M-4    100  8000000 ns/op  0 B/op  0 allocs/op
`

func TestCheckSpeedup(t *testing.T) {
	benches, _, err := Parse(strings.NewReader(speedupSample))
	if err != nil {
		t.Fatal(err)
	}
	// Best-of-matches: 1.5ms fused vs 8ms staged = 5.3x, passes a 2x gate.
	if v := CheckSpeedup(benches, "FusedCompress/1M<StagedCompress/1M:2.0"); len(v) != 0 {
		t.Errorf("passing speedup reported violations: %v", v)
	}
	// An unachievable ratio must violate with the measured numbers.
	v := CheckSpeedup(benches, "FusedCompress/1M<StagedCompress/1M:10")
	if len(v) != 1 || !strings.Contains(v[0], "want >= 10") {
		t.Errorf("failing speedup not caught: %v", v)
	}
	// Either side matching nothing is a violation, not a silent pass.
	if v := CheckSpeedup(benches, "Renamed<StagedCompress/1M:1.5"); len(v) != 1 ||
		!strings.Contains(v[0], "matched no benchmarks") {
		t.Errorf("empty fast side not caught: %v", v)
	}
	if v := CheckSpeedup(benches, "FusedCompress/1M<Gone:1.5"); len(v) != 1 ||
		!strings.Contains(v[0], "matched no benchmarks") {
		t.Errorf("empty slow side not caught: %v", v)
	}
	// Malformed rules are violations.
	for _, bad := range []string{"NoSeparator", "A<B", "A<B:zero", "A<B:-1"} {
		if v := CheckSpeedup(benches, bad); len(v) != 1 {
			t.Errorf("malformed rule %q not reported: %v", bad, v)
		}
	}
	if v := CheckSpeedup(benches, ""); v != nil {
		t.Errorf("empty -speedup produced violations: %v", v)
	}
}

// TestCheckSpeedupPairsAlternatedRuns: a pair of benchmarks run back to
// back five times, on a host that flips between two speed states, is read
// as five pairs. The slow side's first sample caught the fast state and
// the fast side's never did, so best against best reads 0.61x and fails a
// 0.95 floor the pairs clear (median 0.99x); a real regression still
// fails, and lines that do not alternate are still compared best against
// best.
func TestCheckSpeedupPairsAlternatedRuns(t *testing.T) {
	pairs := func(ns ...[2]int) []Benchmark {
		var in strings.Builder
		for _, p := range ns {
			fmt.Fprintf(&in, "BenchmarkChecksum-2  100  %d ns/op\nBenchmarkPlain-2  100  %d ns/op\n", p[0], p[1])
		}
		benches, _, err := Parse(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		return benches
	}
	flipped := pairs([2]int{160, 98}, [2]int{160, 158}, [2]int{161, 159}, [2]int{160, 157}, [2]int{159, 158})
	if v := CheckSpeedup(flipped, "Checksum<Plain:0.95"); len(v) != 0 {
		t.Errorf("alternated pairs at parity failed the gate: %v", v)
	}
	if got, how, _ := speedupOf(flipped, "Checksum", "Plain"); got < 0.98 || got > 0.99 || !strings.Contains(how, "median of 5 alternated pairs") {
		t.Errorf("speedup %.3f (%s), want the median pair's 0.987", got, how)
	}
	slower := pairs([2]int{125, 100}, [2]int{200, 160}, [2]int{126, 100}, [2]int{199, 160}, [2]int{125, 101})
	if v := CheckSpeedup(slower, "Checksum<Plain:0.95"); len(v) != 1 || !strings.Contains(v[0], "median of 5") {
		t.Errorf("a 25%% slower fast side passed, or failed without naming the pairs: %v", v)
	}
	// Each side's lines one after another (as -cpu 1,4 prints them) are not
	// pairs: best against best, 98 over 159.
	var grouped []Benchmark
	for side := 0; side < 2; side++ {
		for k := side; k < len(flipped); k += 2 {
			grouped = append(grouped, flipped[k])
		}
	}
	if got, how, _ := speedupOf(grouped, "Checksum", "Plain"); got > 0.62 || !strings.Contains(how, "best") {
		t.Errorf("grouped lines read %.3f (%s), want best against best, 0.616", got, how)
	}
}

func TestCanonicalName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkSteadyStatePushPull-8", "SteadyStatePushPull"},
		{"BenchmarkSteadyStatePushPull", "SteadyStatePushPull"},
		{"BenchmarkCompressInto/3LC_(s=1.75)-16", "CompressInto/3LC_(s=1.75)"},
		{"BenchmarkDecodeAdd/1M-4", "DecodeAdd/1M"},
		{"BenchmarkEntropyStage/huffman-encode", "EntropyStage/huffman-encode"},
	} {
		if got := CanonicalName(tc.in); got != tc.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCheckBaseline(t *testing.T) {
	// The baseline is a benchcheck -out report of the same go-test suites,
	// recorded at GOMAXPROCS 2; the current run is at 4 and, for one row,
	// at 1 (no suffix).
	cur, _, err := Parse(strings.NewReader(
		"BenchmarkSteadyStatePushPull-4  100  2000000 ns/op  0 B/op  0 allocs/op\n" +
			"BenchmarkSteadyStatePushPullTiny-4  100  9000000 ns/op  0 B/op  0 allocs/op\n" +
			"BenchmarkSteadyStatePushPullF32-4  100  9000000 ns/op  0 B/op  0 allocs/op\n" +
			"BenchmarkDecodeAdd/1M  100  500000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	base := []Benchmark{
		{Name: "BenchmarkSteadyStatePushPull-2", NsPerOp: 1800000},
		{Name: "BenchmarkSteadyStatePushPullTiny-2", NsPerOp: 1000000},
		{Name: "BenchmarkSteadyStatePushPullF32-2", NsPerOp: 1000000},
		{Name: "BenchmarkDecodeAdd/1M-2", NsPerOp: 450000},
		{Name: "BenchmarkCompressInto/3LC_(s=1.75)-2", NsPerOp: 1},
	}
	// Within a 25% tolerance: 2.0ms vs 1.8ms baseline passes, and the
	// anchored pattern does not pick up the 9x slower ...Tiny / ...F32.
	if v := CheckBaseline(cur, base, "^SteadyStatePushPull$|DecodeAdd", 0.25); len(v) != 0 {
		t.Errorf("in-tolerance run reported violations: %v", v)
	}
	if v := CheckBaseline(cur, base, "SteadyStatePushPull", 0.25); len(v) != 2 {
		t.Errorf("unanchored pattern should also gate Tiny and F32: %v", v)
	}
	// A tight tolerance catches the 11% slowdown.
	v := CheckBaseline(cur, base, "^SteadyStatePushPull$", 0.05)
	if len(v) != 1 || !strings.Contains(v[0], "regresses past baseline") {
		t.Errorf("regression not caught: %v", v)
	}
	// A gated baseline entry missing from the run is a violation.
	v = CheckBaseline(cur, base, "CompressInto", 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "missing from input") {
		t.Errorf("missing benchmark not caught: %v", v)
	}
	// A pattern matching nothing in the baseline empties the gate: violation.
	v = CheckBaseline(cur, base, "Renamed", 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "matched no baseline entries") {
		t.Errorf("empty gate not caught: %v", v)
	}
}

func TestCheckRequired(t *testing.T) {
	benches, _, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckRequired(benches, "CompressInto3LC,CompressIntoInt8, NoMemFlag"); len(v) != 0 {
		t.Errorf("present benches reported missing: %v", v)
	}
	// Each missing pattern is its own violation: a crashed package cannot
	// hide behind the other packages' benchmarks.
	v := CheckRequired(benches, "CompressInto,SteadyStatePushPull,Quartic")
	if len(v) != 2 ||
		!strings.Contains(v[0], "SteadyStatePushPull") ||
		!strings.Contains(v[1], "Quartic") {
		t.Errorf("missing benches not each reported: %v", v)
	}
	if v := CheckRequired(benches, "["); len(v) != 1 || !strings.Contains(v[0], "bad -require pattern") {
		t.Errorf("bad pattern not reported: %v", v)
	}
	if v := CheckRequired(benches, ""); v != nil {
		t.Errorf("empty -require produced violations: %v", v)
	}
}

func TestCheckMinMetric(t *testing.T) {
	sample := `
BenchmarkEntropyStage/huffman-8    100    5000 ns/op    1.42 ratio    120 MB/s
BenchmarkEntropyStage/lz-8         100    4000 ns/op    1.18 ratio
BenchmarkEntropyStage/stored-8     100     900 ns/op
`
	benches, _, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckMinMetric(benches, "EntropyStage:ratio:1.1"); len(v) != 0 {
		t.Errorf("passing min-metric reported violations: %v", v)
	}
	// Best-of-matches: huffman's 1.42 carries the shared pattern.
	if v := CheckMinMetric(benches, "EntropyStage:ratio:1.3"); len(v) != 0 {
		t.Errorf("best-of-matches not applied: %v", v)
	}
	v := CheckMinMetric(benches, "EntropyStage/lz:ratio:1.3")
	if len(v) != 1 || !strings.Contains(v[0], "below required") {
		t.Errorf("failing floor not caught: %v", v)
	}
	// Matching benchmarks that never report the metric is a violation.
	if v := CheckMinMetric(benches, "EntropyStage/stored:ratio:1.1"); len(v) != 1 ||
		!strings.Contains(v[0], "reports a") {
		t.Errorf("missing metric not caught: %v", v)
	}
	if v := CheckMinMetric(benches, "Renamed:ratio:1.1"); len(v) != 1 {
		t.Errorf("empty pattern not caught: %v", v)
	}
	// Multiple rules accumulate independently.
	if v := CheckMinMetric(benches, "EntropyStage:ratio:1.1, EntropyStage:MB/s:100"); len(v) != 0 {
		t.Errorf("multi-rule spec failed: %v", v)
	}
	for _, bad := range []string{"NoColons", "A:ratio", "A:ratio:x"} {
		if v := CheckMinMetric(benches, bad); len(v) != 1 {
			t.Errorf("malformed rule %q not reported: %v", bad, v)
		}
	}
	if v := CheckMinMetric(benches, ""); v != nil {
		t.Errorf("empty -min-metric produced violations: %v", v)
	}
}

// TestPatternsMatchFromNameStart: a name pattern matches from the first
// character after "Benchmark", with or without that prefix, so a row
// whose name merely contains the pattern cannot stand in for the rows it
// names — the accumulate+|max| kernel's rows for the read-only |max|'s.
func TestPatternsMatchFromNameStart(t *testing.T) {
	benches, _, err := Parse(strings.NewReader(`
BenchmarkAccumulateMaxAbsKernel/asm/1M-2       100   1000 ns/op   0 B/op   0 allocs/op   1.50 ratio
BenchmarkAccumulateMaxAbsKernel/scalar/1M-2    100   4000 ns/op   0 B/op   0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"MaxAbsKernel/asm", "BenchmarkMaxAbsKernel/asm"} {
		if v := CheckRequired(benches, pat); len(v) != 1 {
			t.Errorf("-require %q satisfied by AccumulateMaxAbsKernel's rows: %v", pat, v)
		}
		if v := CheckSpeedup(benches, pat+"<AccumulateMaxAbsKernel/scalar:1.5"); len(v) != 1 || !strings.Contains(v[0], "matched no benchmarks") {
			t.Errorf("-speedup %q satisfied by AccumulateMaxAbsKernel's rows: %v", pat, v)
		}
		if v := CheckMinMetric(benches, pat+":ratio:1.1"); len(v) != 1 {
			t.Errorf("-min-metric %q satisfied by AccumulateMaxAbsKernel's rows: %v", pat, v)
		}
	}
	// Both spellings of a pattern that names the rows match them, and the
	// end of the name stays open unless the pattern closes it.
	for _, pat := range []string{"AccumulateMaxAbsKernel/asm", "BenchmarkAccumulateMaxAbsKernel/asm", "Accumulate", "AccumulateMaxAbsKernel/asm/1M(-|$)"} {
		if v := CheckRequired(benches, pat); len(v) != 0 {
			t.Errorf("-require %q: %v", pat, v)
		}
	}
	if v := CheckRequired(benches, "AccumulateMaxAbsKernel/asm$"); len(v) != 1 {
		t.Errorf("-require with its end anchored matched a longer name: %v", v)
	}
}
