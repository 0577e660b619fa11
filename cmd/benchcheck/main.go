// Command benchcheck parses `go test -bench` output, enforces allocation
// budgets on steady-state benchmarks, and emits a machine-readable JSON
// summary for the CI perf trajectory. It replaces grep-based bench gating:
// the parser understands the benchmark line format, so a renamed benchmark
// or a silently empty run fails the gate instead of slipping through.
//
//	go test -run='^$' -bench . -benchmem ./... | benchcheck \
//	    -zero-allocs 'CompressInto|SteadyStatePushPull' -out BENCH_ci.json
//
// Rules:
//   - Benchmarks matching -zero-allocs must report an allocs/op metric
//     (i.e. the run used -benchmem) and it must be exactly 0.
//   - -zero-allocs must match at least one parsed benchmark, so the gate
//     cannot be emptied by a rename.
//   - -speedup 'fastPat<slowPat:ratio' rules enforce relative performance:
//     the best ns/op matching fastPat must beat the best ns/op matching
//     slowPat by at least ratio (the fused-vs-staged kernel regression
//     gate). When the two sides' lines alternate in the input — a pair run
//     back to back, repeatedly — the median of the adjacent pairs' ratios
//     must reach ratio instead.
//   - -min-metric 'pattern:unit:min' rules enforce custom-metric floors:
//     the best value of the metric among matching benchmarks must reach
//     min (the entropy-stage compression-ratio gate).
//   - Any `--- FAIL` or `FAIL` line in the input fails the gate.
//
// The name patterns of -zero-allocs, -require, -speedup and -min-metric
// match from the first character after "Benchmark" (see namePattern).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including the -P GOMAXPROCS suffix,
	// e.g. "BenchmarkSteadyStatePushPull-8".
	Name string `json:"name"`
	// Iterations is the measured iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op value.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is B/op; -1 when the run lacked -benchmem.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is allocs/op; -1 when the run lacked -benchmem.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Extra holds custom metrics (unit -> value), e.g. "MB/s".
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the JSON artifact schema.
type Report struct {
	// Benchmarks are all parsed results, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// ZeroAllocPattern is the enforced steady-state pattern.
	ZeroAllocPattern string `json:"zero_alloc_pattern,omitempty"`
	// Violations lists benchmarks that failed the allocation gate.
	Violations []string `json:"violations,omitempty"`
}

// benchLine matches "BenchmarkName-8   123   456 ns/op   [metrics...]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// Parse reads `go test -bench` output and returns the benchmark results
// plus whether the stream contained test failures.
func Parse(r io.Reader) ([]Benchmark, bool, error) {
	var out []Benchmark
	failed := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "--- FAIL") || trimmed == "FAIL" || strings.HasPrefix(trimmed, "FAIL\t") {
			failed = true
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
		fields := strings.Fields(m[3])
		// Metrics come in value/unit pairs: "456 ns/op 0 B/op 0 allocs/op
		// 12.5 MB/s".
		for i := 0; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					b.NsPerOp = v
				}
			case "B/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					b.BytesPerOp = v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					b.AllocsPerOp = v
				}
			default:
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					if b.Extra == nil {
						b.Extra = map[string]float64{}
					}
					b.Extra[unit] = v
				}
			}
		}
		out = append(out, b)
	}
	return out, failed, sc.Err()
}

// namePattern compiles a benchmark-name pattern. It matches from the
// first character after "Benchmark", and a leading "Benchmark" in the
// pattern is accepted too, so "MaxAbsKernel/asm" and
// "BenchmarkMaxAbsKernel/asm" both match "BenchmarkMaxAbsKernel/asm/1M-2"
// and neither matches "BenchmarkAccumulateMaxAbsKernel/asm/1M-2". Where
// the name may end is the pattern's own business ("(-|$)", "$").
func namePattern(pat string) (*regexp.Regexp, error) {
	return regexp.Compile(`^(?:Benchmark)?(?:` + pat + `)`)
}

// Check applies the zero-allocation gate of pattern (none when empty) and
// returns the violations.
func Check(benches []Benchmark, pattern string) []string {
	if pattern == "" {
		return nil
	}
	zeroAllocs, err := namePattern(pattern)
	if err != nil {
		return []string{fmt.Sprintf("bad -zero-allocs pattern %q: %v", pattern, err)}
	}
	var violations []string
	matched := 0
	for _, b := range benches {
		if !zeroAllocs.MatchString(b.Name) {
			continue
		}
		matched++
		switch {
		case b.AllocsPerOp < 0:
			violations = append(violations,
				fmt.Sprintf("%s: no allocs/op metric (run the benchmark with -benchmem)", b.Name))
		case b.AllocsPerOp > 0:
			violations = append(violations,
				fmt.Sprintf("%s: %d allocs/op, steady state must be 0", b.Name, b.AllocsPerOp))
		}
	}
	if matched == 0 {
		violations = append(violations,
			fmt.Sprintf("pattern %q matched no benchmarks — renamed or missing steady-state benches empty the gate", pattern))
	}
	return violations
}

// CheckSpeedup enforces relative-performance gates. spec is a
// comma-separated list of "fastPat<slowPat:ratio" rules: benchmarks
// matching fastPat must be at least `ratio` times faster than those
// matching slowPat, as speedupOf measures it. Either side matching nothing
// is a violation (a renamed benchmark cannot silently empty the gate).
func CheckSpeedup(benches []Benchmark, spec string) []string {
	var violations []string
	for _, rule := range strings.Split(spec, ",") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		lt := strings.SplitN(rule, "<", 2)
		if len(lt) != 2 {
			violations = append(violations, fmt.Sprintf("bad -speedup rule %q: want fastPat<slowPat:ratio", rule))
			continue
		}
		rest := strings.SplitN(lt[1], ":", 2)
		if len(rest) != 2 {
			violations = append(violations, fmt.Sprintf("bad -speedup rule %q: missing :ratio", rule))
			continue
		}
		ratio, err := strconv.ParseFloat(rest[1], 64)
		if err != nil || ratio <= 0 {
			violations = append(violations, fmt.Sprintf("bad -speedup ratio in %q", rule))
			continue
		}
		got, how, err := speedupOf(benches, lt[0], rest[0])
		if err != nil {
			violations = append(violations, fmt.Sprintf("-speedup rule %q: %v", rule, err))
			continue
		}
		if got < ratio {
			violations = append(violations, fmt.Sprintf("%s is only %.2fx faster than %s (%s), want >= %.2fx",
				lt[0], got, rest[0], how, ratio))
		}
	}
	return violations
}

// speedupOf measures how many times faster the benchmarks matching fastPat
// ran than those matching slowPat, and says how. When the matching lines
// alternate in the input — fast, slow, fast, slow… or slow first, each line
// matching one side only — they are pairs run back to back, and the
// answer is the median of the pairs' ratios: a host that changes speed
// mid-run moves both halves of a pair, where best against best compares
// one side's luckiest moment with the other's. Otherwise it is the best
// slow ns/op over the best fast one, which keeps -cpu 1,4 runs (each side's
// lines one after another, one per GOMAXPROCS) stable.
func speedupOf(benches []Benchmark, fastPat, slowPat string) (float64, string, error) {
	fre, err := namePattern(fastPat)
	if err != nil {
		return 0, "", fmt.Errorf("bad pattern %q: %v", fastPat, err)
	}
	sre, err := namePattern(slowPat)
	if err != nil {
		return 0, "", fmt.Errorf("bad pattern %q: %v", slowPat, err)
	}
	var lines []Benchmark
	var fast []bool
	bestFast, bestSlow := -1.0, -1.0
	alternate := true
	for _, b := range benches {
		f, s := fre.MatchString(b.Name), sre.MatchString(b.Name)
		if !f && !s {
			continue
		}
		alternate = alternate && !(f && s) && (len(fast) == 0 || fast[len(fast)-1] != f)
		lines, fast = append(lines, b), append(fast, f)
		if f && (bestFast < 0 || b.NsPerOp < bestFast) {
			bestFast = b.NsPerOp
		}
		if s && (bestSlow < 0 || b.NsPerOp < bestSlow) {
			bestSlow = b.NsPerOp
		}
	}
	switch {
	case bestFast < 0:
		return 0, "", fmt.Errorf("pattern %q matched no benchmarks", fastPat)
	case bestSlow < 0:
		return 0, "", fmt.Errorf("pattern %q matched no benchmarks", slowPat)
	case !alternate || len(lines)%2 != 0:
		return bestSlow / bestFast, fmt.Sprintf("best %.0f against best %.0f ns/op", bestFast, bestSlow), nil
	}
	ratios := make([]float64, 0, len(lines)/2)
	for k := 0; k < len(lines); k += 2 {
		f, s := lines[k], lines[k+1]
		if !fast[k] {
			f, s = s, f
		}
		ratios = append(ratios, s.NsPerOp/f.NsPerOp)
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	return median, fmt.Sprintf("median of %d alternated pairs, %.2fx to %.2fx", len(ratios), ratios[0], ratios[len(ratios)-1]), nil
}

// CheckMinMetric enforces custom-metric floors. spec is a comma-separated
// list of "pattern:unit:min" rules: among benchmarks matching pattern that
// report the custom metric unit, the best (highest) value must be at least
// min. The entropy-stage gate uses it ("EntropyStage.*huffman:ratio:1.1" —
// the coded stream must stay >= 1.1x smaller than its input). A pattern
// matching no benchmark, or matching only benchmarks without the metric,
// is a violation: a renamed benchmark or dropped ReportMetric cannot
// silently empty the gate.
func CheckMinMetric(benches []Benchmark, spec string) []string {
	var violations []string
	for _, rule := range strings.Split(spec, ",") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		// Split from the right: the unit and min value never contain
		// colons, the name pattern may.
		mi := strings.LastIndex(rule, ":")
		ui := strings.LastIndex(rule[:max(mi, 0)], ":")
		if mi <= 0 || ui <= 0 {
			violations = append(violations, fmt.Sprintf("bad -min-metric rule %q: want pattern:unit:min", rule))
			continue
		}
		pat, unit, minStr := rule[:ui], rule[ui+1:mi], rule[mi+1:]
		minVal, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			violations = append(violations, fmt.Sprintf("bad -min-metric floor in %q", rule))
			continue
		}
		re, err := namePattern(pat)
		if err != nil {
			violations = append(violations, fmt.Sprintf("bad -min-metric pattern %q: %v", pat, err))
			continue
		}
		best, found := 0.0, false
		for _, b := range benches {
			if !re.MatchString(b.Name) {
				continue
			}
			v, ok := b.Extra[unit]
			if !ok {
				continue
			}
			if !found || v > best {
				best, found = v, true
			}
		}
		switch {
		case !found:
			violations = append(violations,
				fmt.Sprintf("-min-metric rule %q: no benchmark matching %q reports a %q metric", rule, pat, unit))
		case best < minVal:
			violations = append(violations,
				fmt.Sprintf("%s: best %s %.3f below required %.3f", pat, unit, best, minVal))
		}
	}
	return violations
}

// CanonicalName strips the "Benchmark" prefix and the "-N" GOMAXPROCS
// suffix, so a baseline recorded at one GOMAXPROCS compares with a run at
// another (or at 1, where go test prints no suffix):
// "BenchmarkDecodeAdd/1M-2", "BenchmarkDecodeAdd/1M-8" and
// "BenchmarkDecodeAdd/1M" are all "DecodeAdd/1M".
func CanonicalName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil && i+1 < len(name) {
			name = name[:i]
		}
	}
	return name
}

// CheckBaseline compares the parsed benchmarks against a committed
// baseline report (the benchcheck JSON schema, e.g. BENCH_local.json):
// for every baseline entry whose canonical name matches pattern, the best
// current ns/op with the same canonical name must not exceed the baseline
// ns/op by more than the tolerance fraction (cur <= base·(1+tolerance)).
// A matched baseline entry with no current counterpart is a violation —
// renaming a gated benchmark cannot silently empty the gate — and so is a
// pattern that matches nothing in the baseline. The tolerance absorbs
// machine-to-machine variance between where the baseline was recorded and
// where CI runs; it bounds order-of-magnitude regressions, not noise.
func CheckBaseline(benches []Benchmark, baseline []Benchmark, pattern string, tolerance float64) []string {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return []string{fmt.Sprintf("bad -baseline-match pattern %q: %v", pattern, err)}
	}
	best := map[string]float64{}
	for _, b := range benches {
		cn := CanonicalName(b.Name)
		if cur, ok := best[cn]; !ok || b.NsPerOp < cur {
			best[cn] = b.NsPerOp
		}
	}
	var violations []string
	matched := 0
	for _, base := range baseline {
		cn := CanonicalName(base.Name)
		if !re.MatchString(cn) || base.NsPerOp <= 0 {
			continue
		}
		matched++
		cur, ok := best[cn]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("baseline benchmark %q missing from input (renamed or not run?)", cn))
			continue
		}
		if cur > base.NsPerOp*(1+tolerance) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op regresses past baseline %.0f ns/op + %.0f%% tolerance",
				cn, cur, base.NsPerOp, tolerance*100))
		}
	}
	if matched == 0 {
		violations = append(violations,
			fmt.Sprintf("-baseline-match %q matched no baseline entries — the regression gate is empty", pattern))
	}
	return violations
}

// LoadBaseline reads a benchcheck-schema JSON report.
func LoadBaseline(path string) ([]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep.Benchmarks, nil
}

// CheckRequired verifies each comma-separated pattern individually matches
// at least one benchmark. The -zero-allocs alternation alone cannot tell a
// complete run from one where a whole package's benchmarks went missing
// (crashed, renamed, filtered out): any single alternative satisfies it.
func CheckRequired(benches []Benchmark, patterns string) []string {
	var violations []string
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		re, err := namePattern(pat)
		if err != nil {
			violations = append(violations, fmt.Sprintf("bad -require pattern %q: %v", pat, err))
			continue
		}
		found := false
		for _, b := range benches {
			if re.MatchString(b.Name) {
				found = true
				break
			}
		}
		if !found {
			violations = append(violations,
				fmt.Sprintf("required benchmark %q missing from input (crashed or renamed?)", pat))
		}
	}
	return violations
}

func main() {
	var (
		in         = flag.String("in", "", "bench output file (default: stdin)")
		out        = flag.String("out", "", "write JSON report to this file (e.g. BENCH_ci.json)")
		zeroAlloc  = flag.String("zero-allocs", "", "regexp of steady-state benchmarks that must report 0 allocs/op")
		require    = flag.String("require", "", "comma-separated regexps; each must match at least one benchmark")
		speedup    = flag.String("speedup", "", "comma-separated 'fastPat<slowPat:ratio' rules; best ns/op of fastPat must beat slowPat by ratio (the median pair must, when their lines alternate)")
		minMetric  = flag.String("min-metric", "", "comma-separated 'pattern:unit:min' rules; best custom metric of matching benchmarks must reach min")
		requireAny = flag.Bool("require-benchmarks", true, "fail when the input contains no benchmark lines at all")
		baseline   = flag.String("baseline", "", "committed baseline report (benchcheck JSON schema) to gate regressions against")
		baseMatch  = flag.String("baseline-match", "", "regexp of canonical benchmark names the -baseline gate covers (empty: every baseline entry)")
		tolerance  = flag.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown vs -baseline (0.25 = 25%)")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		defer f.Close()
		src = f
	}

	benches, failed, err := Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: read:", err)
		os.Exit(2)
	}

	violations := Check(benches, *zeroAlloc)
	violations = append(violations, CheckRequired(benches, *require)...)
	violations = append(violations, CheckSpeedup(benches, *speedup)...)
	violations = append(violations, CheckMinMetric(benches, *minMetric)...)
	if *baseline != "" {
		base, err := LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck: baseline:", err)
			os.Exit(2)
		}
		violations = append(violations, CheckBaseline(benches, base, *baseMatch, *tolerance)...)
	}
	if *requireAny && len(benches) == 0 {
		violations = append(violations, "input contains no benchmark result lines")
	}
	if failed {
		violations = append(violations, "input contains go test FAIL lines")
	}

	rep := Report{Benchmarks: benches, ZeroAllocPattern: *zeroAlloc, Violations: violations}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("benchcheck: %d benchmarks parsed\n", len(benches))
	for _, v := range violations {
		fmt.Println("benchcheck: FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}
