// Command benchcheck gates CI on hot-path benchmark regressions.
//
// It reads `go test -bench -benchmem` output (possibly with -count > 1),
// takes the best run per benchmark — the minimum ns/op observation is the
// least noise-contaminated estimate on a shared runner — and compares it
// against the committed bench_baseline.json "after" column:
//
//   - ns/op may regress by at most -ns-tolerance (defaults to -tolerance;
//     CI passes a looser value because shared-runner timing varies far
//     more than allocation counts do);
//   - allocs/op is deterministic, so it is gated at -tolerance (default
//     0.25) with no slack below one whole allocation;
//   - deterministic work counts — pkts_per_simsec, events_per_simsec and
//     peak_heap — must match exactly when both sides publish them: a
//     drift in packets or events means the realization itself changed,
//     and a drift in peak heap depth means the scheduler's work per event
//     did, not the machine's speed.
//
// Only benchmarks matching -match participate; a matched baseline entry
// that never appears in the bench output is itself a failure, so renaming
// a benchmark cannot silently disable the gate.
//
// Usage:
//
//	go test -run '^$' -bench 'EmulatedSecond|ScheduleAndFire' -benchmem \
//	    -count 5 ./internal/sim/... ./internal/network/... | tee bench.out
//	benchcheck -bench bench.out -baseline bench_baseline.json \
//	    -match 'EmulatedSecond|ScheduleAndFire'
//
// Exit status: 0 when every gated benchmark is within tolerance, 1 on any
// regression or missing benchmark, 2 on a malformed invocation.
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

// stats is one measurement (or baseline) of one benchmark.
type stats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Deterministic work counts (see exactMetrics).
	PktsPerSimsec   float64 `json:"pkts_per_simsec"`
	EventsPerSimsec float64 `json:"events_per_simsec"`
	PeakHeap        float64 `json:"peak_heap"`
	// seen tracks which fields the bench output actually reported; bit i
	// of seenExact stands for exactMetrics[i].
	seenNs, seenAllocs bool
	seenExact          uint8
}

// exactMetrics are the deterministic work counts gated for equality: the
// bench-output unit, the baseline key, and the field holding the value.
var exactMetrics = [...]struct {
	unit, key string
	field     func(*stats) *float64
}{
	{"pkts/simsec", "pkts_per_simsec", func(s *stats) *float64 { return &s.PktsPerSimsec }},
	{"events/simsec", "events_per_simsec", func(s *stats) *float64 { return &s.EventsPerSimsec }},
	{"peak_heap", "peak_heap", func(s *stats) *float64 { return &s.PeakHeap }},
}

// baseline mirrors bench_baseline.json.
type baseline struct {
	Comment    string `json:"comment"`
	Machine    string `json:"machine"`
	Go         string `json:"go"`
	Benchmarks map[string]struct {
		Before stats `json:"before"`
		After  stats `json:"after"`
	} `json:"benchmarks"`
}

func main() {
	var (
		benchPath    = flag.String("bench", "", "go test -bench output to check (required)")
		baselinePath = flag.String("baseline", "bench_baseline.json", "committed baseline")
		match        = flag.String("match", "EmulatedSecond|ScheduleAndFire", "regexp of gated benchmarks (matched against pkg.BenchmarkName)")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed relative regression for ns/op and allocs/op")
		nsTolerance  = flag.Float64("ns-tolerance", -1, "override -tolerance for ns/op only (shared runners are noisy; allocs/op are not)")
	)
	flag.Parse()
	if *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -bench is required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: -match: %v\n", err)
		os.Exit(2)
	}
	if *tolerance < 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: -tolerance must be non-negative")
		os.Exit(2)
	}
	if *nsTolerance < 0 {
		*nsTolerance = *tolerance
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	f, err := os.Open(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	measured, err := parseBench(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}

	failures := check(base, measured, re, *nsTolerance, *tolerance, os.Stdout)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d regression(s) beyond tolerance (ns/op %.0f%%, allocs/op %.0f%%)\n",
			failures, *nsTolerance*100, *tolerance*100)
		os.Exit(1)
	}
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &b, nil
}

// check compares every gated baseline entry against the best measured run
// and prints one verdict row per benchmark; it returns the failure count.
func check(base *baseline, measured map[string]stats, re *regexp.Regexp, nsTol, allocTol float64, w io.Writer) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no baseline benchmark matches %q\n", re)
		return 1
	}
	failures := 0
	for _, name := range names {
		want := base.Benchmarks[name].After
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %-36s missing from bench output (renamed or skipped?)\n", name)
			failures++
			continue
		}
		var problems []string
		if got.seenNs && want.NsPerOp > 0 {
			limit := want.NsPerOp * (1 + nsTol)
			verdict := "ok"
			if got.NsPerOp > limit {
				problems = append(problems, fmt.Sprintf("ns/op %.4g > %.4g (baseline %.4g +%.0f%%)",
					got.NsPerOp, limit, want.NsPerOp, nsTol*100))
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %-36s ns/op     %10.4g  baseline %10.4g  (%+.1f%%)\n",
				verdict, name, got.NsPerOp, want.NsPerOp, 100*(got.NsPerOp-want.NsPerOp)/want.NsPerOp)
		}
		if got.seenAllocs {
			// A zero-alloc baseline tolerates nothing: 0 × (1+tol) is 0,
			// so the first reintroduced allocation fails the gate.
			limit := want.AllocsPerOp * (1 + allocTol)
			verdict := "ok"
			if got.AllocsPerOp > limit {
				problems = append(problems, fmt.Sprintf("allocs/op %.0f > baseline %.0f +%.0f%%",
					got.AllocsPerOp, want.AllocsPerOp, allocTol*100))
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %-36s allocs/op %10.0f  baseline %10.0f\n",
				verdict, name, got.AllocsPerOp, want.AllocsPerOp)
		}
		for i, m := range exactMetrics {
			g, b := *m.field(&got), *m.field(&want)
			if got.seenExact&(1<<i) == 0 || b <= 0 {
				continue
			}
			verdict := "ok"
			if g != b {
				problems = append(problems, fmt.Sprintf("%s %g != baseline %g (deterministic work count drifted)",
					m.key, g, b))
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %-36s %s %g  baseline %g (exact)\n", verdict, name, m.key, g, b)
		}
		if len(problems) > 0 {
			failures++
		}
	}
	return failures
}

// parseBench extracts per-benchmark best-run stats from `go test -bench`
// output. `pkg:` lines qualify benchmark names with the package's last
// path element, matching the baseline's "sim.BenchmarkX" keys.
func parseBench(f io.Reader) (map[string]stats, error) {
	out := map[string]stats{}
	pkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			parts := strings.Split(strings.TrimSpace(rest), "/")
			pkg = parts[len(parts)-1]
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// BenchmarkName-GOMAXPROCS  N  v1 unit1  v2 unit2 ...
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		s := out[name]
		run := stats{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: %v", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				run.NsPerOp, run.seenNs = v, true
			case "B/op":
				run.BytesPerOp = v
			case "allocs/op":
				run.AllocsPerOp, run.seenAllocs = v, true
			default:
				for j, m := range exactMetrics {
					if fields[i+1] == m.unit || fields[i+1] == m.key {
						*m.field(&run) = v
						run.seenExact |= 1 << j
					}
				}
			}
		}
		// Fold runs of the same benchmark: minimum ns/op (least noise),
		// maximum allocs/op (conservative — a real alloc regression shows
		// in every run), latest exact work counts (deterministic).
		if run.seenNs && (!s.seenNs || run.NsPerOp < s.NsPerOp) {
			s.NsPerOp, s.BytesPerOp, s.seenNs = run.NsPerOp, run.BytesPerOp, true
		}
		if run.seenAllocs && (!s.seenAllocs || run.AllocsPerOp > s.AllocsPerOp) {
			s.AllocsPerOp, s.seenAllocs = run.AllocsPerOp, true
		}
		for j, m := range exactMetrics {
			if run.seenExact&(1<<j) != 0 {
				*m.field(&s) = *m.field(&run)
			}
		}
		s.seenExact |= run.seenExact
		out[name] = s
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return out, nil
}
