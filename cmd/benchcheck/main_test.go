package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: starvation/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkScheduleAndFire-4   	68631372	        17.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkScheduleAndFire-4   	70221181	        16.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkDeepQueue-4         	 9780175	       122.9 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	starvation/internal/sim	5.1s
pkg: starvation/internal/network
BenchmarkEmulatedSecond-4    	     406	   2901000 ns/op	      3908 pkts/simsec	    806224 B/op	       943 allocs/op
BenchmarkEmulatedSecond-4    	     412	   2850000 ns/op	      3908 pkts/simsec	    806224 B/op	       943 allocs/op
PASS
ok  	starvation/internal/network	4.2s
`

func sampleBaseline() *baseline {
	return &baseline{Benchmarks: map[string]struct {
		Before stats `json:"before"`
		After  stats `json:"after"`
	}{
		"sim.BenchmarkScheduleAndFire": {After: stats{NsPerOp: 16.7, AllocsPerOp: 0}},
		"network.BenchmarkEmulatedSecond": {After: stats{
			NsPerOp: 2773000, AllocsPerOp: 943, PktsPerSimsec: 3908}},
	}}
}

func TestParseBenchFoldsRuns(t *testing.T) {
	m, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	sf, ok := m["sim.BenchmarkScheduleAndFire"]
	if !ok {
		t.Fatalf("names parsed: %v", m)
	}
	if sf.NsPerOp != 16.9 {
		t.Errorf("min ns/op = %v, want 16.9", sf.NsPerOp)
	}
	es := m["network.BenchmarkEmulatedSecond"]
	if es.NsPerOp != 2850000 || es.AllocsPerOp != 943 || es.PktsPerSimsec != 3908 || es.seenExact&1 == 0 {
		t.Errorf("EmulatedSecond folded wrong: %+v", es)
	}
}

func runCheck(t *testing.T, bench string, tol float64) (int, string) {
	t.Helper()
	m, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n := check(sampleBaseline(), m, regexp.MustCompile("EmulatedSecond|ScheduleAndFire"), tol, tol, &out)
	return n, out.String()
}

func TestCheckWithinTolerancePasses(t *testing.T) {
	// 17.1/16.9 vs 16.7 and 2.85ms vs 2.773ms are both within 25%.
	if n, out := runCheck(t, sampleBench, 0.25); n != 0 {
		t.Errorf("failures = %d\n%s", n, out)
	}
}

func TestCheckNsRegressionFails(t *testing.T) {
	slow := strings.ReplaceAll(sampleBench, "16.9 ns/op", "16.9 ns/op")
	slow = strings.ReplaceAll(slow, "2901000 ns/op", "4200000 ns/op")
	slow = strings.ReplaceAll(slow, "2850000 ns/op", "4150000 ns/op")
	n, out := runCheck(t, slow, 0.25)
	if n != 1 || !strings.Contains(out, "FAIL") {
		t.Errorf("failures = %d\n%s", n, out)
	}
}

func TestCheckAllocRegressionFails(t *testing.T) {
	// A zero-alloc baseline must not tolerate a single new allocation.
	leaky := strings.ReplaceAll(sampleBench,
		"16.9 ns/op	       0 B/op	       0 allocs/op",
		"16.9 ns/op	      48 B/op	       1 allocs/op")
	if n, _ := runCheck(t, leaky, 0.25); n != 1 {
		t.Errorf("failures = %d, want 1", n)
	}
}

func TestCheckRealizationDriftFails(t *testing.T) {
	drift := strings.ReplaceAll(sampleBench, "3908 pkts/simsec", "3910 pkts/simsec")
	n, out := runCheck(t, drift, 0.25)
	if n != 1 || !strings.Contains(out, "pkts_per_simsec") {
		t.Errorf("failures = %d\n%s", n, out)
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	// Drop the network package: a renamed/skipped gated benchmark fails.
	simOnly := strings.SplitN(sampleBench, "pkg: starvation/internal/network", 2)[0]
	n, out := runCheck(t, simOnly, 0.25)
	if n != 1 || !strings.Contains(out, "missing") {
		t.Errorf("failures = %d\n%s", n, out)
	}
}

// TestCheckExactWorkCountsFail pins the exact gates on the deterministic
// work counts a benchmark reports beside pkts/simsec: a peak heap depth or
// an event count off by one fails, the matching values pass.
func TestCheckExactWorkCountsFail(t *testing.T) {
	const bench = `pkg: starvation/internal/network
BenchmarkEmulatedSecond1G-2   	  100	   6870997 ns/op	     36844 events/simsec	         7.000 peak_heap	     12280 pkts/simsec	 1854259 B/op	    4317 allocs/op
`
	base := &baseline{Benchmarks: map[string]struct {
		Before stats `json:"before"`
		After  stats `json:"after"`
	}{
		"network.BenchmarkEmulatedSecond1G": {After: stats{NsPerOp: 6.9e6, AllocsPerOp: 4317,
			PktsPerSimsec: 12280, EventsPerSimsec: 36844, PeakHeap: 7}},
	}}
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"match", "", "", ""},
		{"peak heap", "7.000 peak_heap", "8.000 peak_heap", "peak_heap"},
		{"events", "36844 events/simsec", "36845 events/simsec", "events_per_simsec"},
	} {
		m, err := parseBench(strings.NewReader(strings.Replace(bench, tc.from, tc.to, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		n := check(base, m, regexp.MustCompile("EmulatedSecond"), 0.25, 0.25, &out)
		if tc.want == "" && n != 0 || tc.want != "" && (n != 1 || !strings.Contains(out.String(), tc.want)) {
			t.Errorf("%s: failures = %d\n%s", tc.name, n, out.String())
		}
	}
}
