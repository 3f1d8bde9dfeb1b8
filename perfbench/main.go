// Command perfbench is the repository benchmark. One invocation runs one
// workload through the public Go APIs for a fixed wall time, checks that
// the program's outputs are correct, and prints its metrics: the
// end-to-end metrics by default, the per-layer metrics with -trace 1.
//
//	perfbench -workload paper|sweep|service -seed N -seconds S -trace 0|1
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The command
// exits 1 when an output check fails and 2 on a usage error. See
// README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"flowsec_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p95_ms", "ms"},
	{"heavy_jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// ccaNames are the algorithms of the sweep population whose callbacks
// the traced run times.
var ccaNames = []string{"vegas", "reno", "cubic", "copa", "bbr"}

// spanNames are the paper experiments the traced run times.
var spanNames = []string{"core.rate_delay_sweep", "core.pigeonhole", "core.emulate_two_flow",
	"scenario.bbr_two_flow", "scenario.vivace_ackagg", "scenario.allegro_loss", "scenario.fig7"}

// perLayer lists the metrics every traced run reports. A layer a workload
// does not exercise reads 0 there.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sim.events_fired", "count"},
		{"sim.events_cancelled", "count"},
		{"sim.queue_max", "count"},
		{"sim.ns_per_event", "ns"},
		{"netem.pkts_delivered", "count"},
		{"netem.pkts_dropped", "count"},
		{"netem.queue_max_bytes", "bytes"},
		{"netem.ns_per_pkt", "ns"},
		{"endpoint.acks", "count"},
		{"endpoint.retransmits", "count"},
	}
	for _, c := range ccaNames {
		m = append(m, metricDef{"cca." + c + ".calls", "count"},
			metricDef{"cca." + c + ".ns_per_call", "ns"},
			metricDef{"cca." + c + ".share", "ratio"})
	}
	for _, s := range spanNames {
		m = append(m, metricDef{s + ".ms", "ms"})
	}
	// Only the scenario calls return every network they ran, so only
	// their spans have an event count.
	for _, s := range spanNames {
		if strings.HasPrefix(s, "scenario.") {
			m = append(m, metricDef{s + ".ns_per_event", "ns"})
		}
	}
	return append(m,
		metricDef{"network.run_ms_p50", "ms"},
		metricDef{"network.build_ms", "ms"},
		metricDef{"network.allocs_per_run", "count"},
		metricDef{"network.bytes_per_run", "bytes"},
		metricDef{"core.render_us_p50", "us"},
		metricDef{"obs.windows_closed", "count"},
		metricDef{"obs.episodes", "count"},
		metricDef{"guard.violations", "count"},
		metricDef{"runner.executed", "count"},
		metricDef{"runner.cache_hits", "count"},
		metricDef{"runner.cache_hit_ratio", "ratio"},
		metricDef{"runner.run_ms_p50", "ms"},
		metricDef{"service.queue_wait_ms_p50", "ms"},
		metricDef{"service.queue_wait_ms_p95", "ms"},
		metricDef{"service.finalize_ms_p95", "ms"},
		metricDef{"service.backlog_end", "count"},
		metricDef{"service.gen_late_ms_max", "ms"},
		metricDef{"http.submit_ms_p50", "ms"},
		metricDef{"http.submit_ms_p95", "ms"},
		metricDef{"http.artifact_ms_p50", "ms"},
		metricDef{"http.rejected", "count"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"},
	)
}()

// scratchDir holds, relative to the directory the benchmark runs in, the
// spans, the counts ledger and the service's data directories.
const scratchDir = ".bench_build"

// setupRepeats is how many times each workload sets up (setupTimer);
// setup_s is the mean of the middle half (setupSeconds), which keeps slow
// starts from moving it.
const setupRepeats = 40

// env is what every workload receives.
type env struct {
	seed    int64
	measure time.Duration
	tr      *tracer // nil on untraced runs
}

// outcome is what every workload returns.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	metrics  map[string]float64
	// identity holds the deterministic work counts of the run's fixed
	// inputs: equal across runs of the same code at the same seed.
	identity map[string]int64
	// notes are printed as-is (metrics that cannot be measured, context).
	notes []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, identity: map[string]int64{}}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(env) *outcome{
	"paper":   runPaper,
	"sweep":   runSweep,
	"service": runService,
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper, sweep or service")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Float64("seconds", 10, "wall time to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper|sweep|service -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	e := env{seed: *seed, measure: time.Duration(*seconds * float64(time.Second))}
	if *traced == 1 {
		e.tr = newTracer()
	}
	o := run(e)
	o.metrics["peak_rss_mb"] = peakRSSMB()
	checkLedger(o, filepath.Join(scratchDir, "counts"), *workload, *seed)
	if e.tr != nil {
		path := filepath.Join(scratchDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := e.tr.writeJSONL(path); err != nil {
			o.check(false, "writing spans: %v", err)
		} else {
			o.note("spans: %d written to %s", e.tr.len(), path)
		}
		o.metrics["trace.spans"] = float64(e.tr.len())
	}
	os.Exit(report(o, *workload, *traced == 1))
}

// report prints the human-readable lines and the final JSON line, and
// returns the exit code.
func report(o *outcome, workload string, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("workload %s: %d attempted, %d failed (failed_share %.4f)\n",
		workload, o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	keys := make([]string, 0, len(o.identity))
	for k := range o.identity {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("count %-28s %d\n", k, o.identity[k])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := o.metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}
