package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"starvation/internal/runner"
	"starvation/internal/scenario"
	"starvation/internal/service"
)

// The service workload drives an in-process starved server (two workers,
// fresh data directory) over a real loopback listener with two client
// goroutines, each on its own HTTP connection:
//
//   - the heavy tenant, closed loop, keeps heavyBacklog sweep batches
//     outstanding and follows the oldest to batch-done;
//   - two light tenants share an open-loop generator: small batches due on
//     a seeded schedule at lightRate, each followed to batch-done
//     and then all its artifacts fetched. A third of light jobs repeat an
//     earlier light spec (a runner cache read); the rest are fresh seeds
//     (simulate, fsync'd cache put, artifact write).
//
// The measured window is cut into segments (see runService).

const (
	lightRate      = 10.0 // light batches per second, both tenants together
	lightMaxJobs   = 3    // jobs per light batch: 1..lightMaxJobs
	heavyBacklog   = 4    // heavy batches outstanding
	heavyJobs      = 4    // jobs per heavy batch
	serviceWorkers = 2
	serviceWarmup  = 3 * time.Second
	httpConns      = 2
	// serviceSegment is the length of the segments the measured window is
	// cut into (see runService); after each, and after the warm-up,
	// serviceSlices reference slices sample the host.
	serviceSegment = 2 * time.Second
	serviceSlices  = 2
)

var (
	lightSpec = scenario.PopulationSpec{Flows: "vegas*2;reno*2", RateMbps: 12, BufferPkts: 50, Duration: time.Second}
	heavySpec = scenario.PopulationSpec{Flows: "vegas*4;cubic*4", RateMbps: 24, BufferPkts: 64, Duration: 4 * time.Second}
)

// flowsOf counts the flows of a spec's clause.
func flowsOf(s scenario.PopulationSpec) int {
	cfg, err := s.Config()
	if err != nil {
		return 0
	}
	return len(cfg.Flows)
}

func jobRequest(name string, s scenario.PopulationSpec) service.JobRequest {
	return service.JobRequest{Name: name, PopulationSpec: s, DurationSec: s.Duration.Seconds()}
}

// specOf is the spec a job request runs (the server folds DurationSec in
// the same way).
func specOf(j service.JobRequest) scenario.PopulationSpec {
	s := j.PopulationSpec
	s.Duration = time.Duration(j.DurationSec * float64(time.Second))
	return s
}

// httpClient wraps the loopback HTTP client, recording a span around
// every call and the submit/artifact latencies.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer

	mu                   sync.Mutex
	submitMs, artifactMs []float64
	rejected             int
}

func (c *httpClient) call(traceID, name, method, path string, body []byte) (int, []byte, error) {
	var code int
	var data []byte
	var err error
	d := c.tr.do(traceID, "http."+name, 0, func(int64) {
		var req *http.Request
		req, err = http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return
		}
		var resp *http.Response
		if resp, err = c.hc.Do(req); err != nil {
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	})
	c.mu.Lock()
	switch name {
	case "submit":
		c.submitMs = append(c.submitMs, ms(d))
		if code == http.StatusTooManyRequests {
			c.rejected++
		}
	case "artifact":
		c.artifactMs = append(c.artifactMs, ms(d))
	}
	c.mu.Unlock()
	return code, data, err
}

// batchRun is one submitted batch as the client saw it.
type batchRun struct {
	client   string
	jobs     []service.JobRequest
	index    int           // light batches: place in the schedule
	at       time.Duration // light batches: due offset into the measured segments
	due      time.Time     // light batches: when the schedule said to send it
	warm     bool          // heavy batches: sent during the warm-up
	posted   time.Time     // POST sent
	accepted time.Time     // POST answered 202
	finished time.Time     // last artifact fetched (or the batch followed, for heavy)
	id       string
	events   []service.Event
	// artifacts holds the fetched artifacts by job name.
	artifacts map[string][]byte
	fail      string // first failure, "" when the batch succeeded
}

func (b *batchRun) failf(format string, args ...any) {
	if b.fail == "" {
		b.fail = fmt.Sprintf(format, args...)
	}
}

// submit posts the batch.
func (c *httpClient) submit(b *batchRun, traceID string) {
	body, err := json.Marshal(service.BatchRequest{Client: b.client, Jobs: b.jobs})
	if err != nil {
		b.failf("encoding request: %v", err)
		return
	}
	b.posted = time.Now()
	code, data, err := c.call(traceID, "submit", http.MethodPost, "/batches", body)
	b.accepted = time.Now()
	if err != nil || code != http.StatusAccepted {
		b.failf("POST /batches: status %d: %v %s", code, err, bytes.TrimSpace(data))
		return
	}
	var st service.BatchStatus
	if err := json.Unmarshal(data, &st); err != nil {
		b.failf("decoding batch status: %v", err)
		return
	}
	b.id = st.ID
}

// follow replays the batch's event stream until the batch is terminal.
func (c *httpClient) follow(b *batchRun) {
	if b.id == "" {
		return
	}
	code, data, err := c.call(b.id, "events", http.MethodGet, "/batches/"+b.id+"/events", nil)
	if err != nil || code != http.StatusOK {
		b.failf("GET events: status %d: %v", code, err)
		return
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			b.failf("decoding event: %v", err)
			return
		}
		b.events = append(b.events, ev)
	}
	if n := len(b.events); n == 0 || b.events[n-1].Type != "batch-done" {
		last := "none"
		if n > 0 {
			last = b.events[n-1].Type
		}
		b.failf("batch ended with %q, not batch-done", last)
	}
}

// fetch GETs the named artifacts right after batch-done, without retrying:
// a 404 here is the completion race, counted as a failure.
func (c *httpClient) fetch(b *batchRun, names []string) {
	if b.fail != "" {
		return
	}
	b.artifacts = map[string][]byte{}
	for _, name := range names {
		code, data, err := c.call(b.id, "artifact", http.MethodGet, "/batches/"+b.id+"/artifacts/"+name, nil)
		if err != nil || code != http.StatusOK {
			b.failf("GET artifact %s: status %d: %v", name, code, err)
			return
		}
		b.artifacts[name] = data
	}
}

// debugQueue reads the scheduler depth and runner counters.
func (c *httpClient) debugQueue() (depth int, st runner.Stats, err error) {
	code, data, err := c.call("debug", "debug_queue", http.MethodGet, "/debug/queue", nil)
	if err != nil || code != http.StatusOK {
		return 0, st, fmt.Errorf("GET /debug/queue: status %d: %v", code, err)
	}
	var q struct {
		Depth int          `json:"depth"`
		Stats runner.Stats `json:"stats"`
	}
	err = json.Unmarshal(data, &q)
	return q.Depth, q.Stats, err
}

// server is one in-process starved instance on a loopback listener.
type server struct {
	svc  *service.Server
	http *http.Server
	done chan struct{}
	dir  string
	cl   *httpClient
}

// startServer is the workload's set-up: server construction and start,
// listener, the first round trip and two warm-up jobs.
func startServer(dir string, tr *tracer) (*server, error) {
	svc, err := service.New(service.Config{DataDir: dir, Workers: serviceWorkers})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, done: make(chan struct{}), dir: dir}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.cl = &httpClient{
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns}},
		tr:   tr,
	}
	if code, _, err := s.cl.call("setup", "healthz", http.MethodGet, "/healthz", nil); err != nil || code != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("GET /healthz: status %d: %v", code, err)
	}
	// One light and one heavy job, each a batch of its own and each
	// followed and fetched, warm the session pool for both shapes, the
	// cache directory and the connection before the first measured batch.
	// The heavy job's CPU time also keeps set-up time from being set by
	// a few fsyncs alone.
	for _, spec := range []scenario.PopulationSpec{lightSpec, heavySpec} {
		warm := &batchRun{client: "warmup", jobs: []service.JobRequest{jobRequest("w", spec)}}
		s.cl.submit(warm, "setup")
		s.cl.follow(warm)
		s.cl.fetch(warm, jobNames(warm))
		if warm.fail != "" {
			s.stop()
			return nil, fmt.Errorf("warm-up batch: %s", warm.fail)
		}
	}
	s.cl.submitMs, s.cl.artifactMs = nil, nil
	return s, nil
}

// stop shuts the listener and the server down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	<-s.done
	s.svc.Drain()
	s.cl.hc.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// lightBatches draws the light tenants' schedule from the seed: due
// offsets into the measured segments, laid end to end, and job specs. It
// depends on the seed alone, never on timing. The schedule is balanced so
// that every seed offers the same load: one batch per 1/lightRate slot,
// due at a seeded point in the first half of its slot; batch sizes cycle
// through 1..lightMaxJobs in seeded order; and in each run of three jobs
// one, chosen by the seed, repeats an earlier light spec.
func lightBatches(seed int64, window time.Duration) []*batchRun {
	rng := rand.New(rand.NewSource(seed))
	slot := time.Duration(float64(time.Second) / lightRate)
	sizes := make([]int, int(window/slot))
	for i := range sizes {
		sizes[i] = 1 + i%lightMaxJobs
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	var out []*batchRun
	var history []scenario.PopulationSpec
	fresh := seed * 1_000_000
	repeatAt, jobs := rng.Intn(3), 0
	for i, n := range sizes {
		due := time.Duration(i)*slot + time.Duration(rng.Float64()*float64(slot)/2)
		b := &batchRun{client: []string{"light-a", "light-b"}[i%2], index: i, at: due}
		var added []scenario.PopulationSpec
		for j := 0; j < n; j++ {
			s := lightSpec
			if jobs%3 == repeatAt && len(history) > 0 {
				s = history[rng.Intn(len(history))]
			} else {
				fresh++
				s.Seed = fresh
			}
			if jobs++; jobs%3 == 0 {
				repeatAt = rng.Intn(3)
			}
			added = append(added, s)
			b.jobs = append(b.jobs, jobRequest(fmt.Sprintf("j%d", j), s))
		}
		history = append(history, added...)
		out = append(out, b)
	}
	return out
}

func jobNames(b *batchRun) []string {
	names := make([]string, len(b.jobs))
	for i, j := range b.jobs {
		names[i] = j.Name
	}
	return names
}

// window is one measured segment of the service workload.
type window struct{ from, to time.Time }

// segmentOf returns the index of the window holding at, or -1.
func segmentOf(ws []window, at time.Time) int {
	for i, w := range ws {
		if at.After(w.from) && at.Before(w.to) {
			return i
		}
	}
	return -1
}

func eventTime(ev service.Event) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, ev.Time)
	return t
}

func runService(e env) *outcome {
	o := newOutcome()
	base := filepath.Join(scratchDir, "service", fmt.Sprint(os.Getpid()))
	defer func() {
		// Deleting a run's thousands of cache files queues journal and
		// discard work on the disk; finishing it here keeps it out of the
		// next run's measurements.
		os.RemoveAll(base)
		syscall.Sync()
	}()
	var srv *server
	// Each set-up starts a server in a fresh data directory and stops the
	// one before it; the last set-up before the window serves it.
	tr, started := e.tr, 0
	setups := &setupTimer{run: func() error {
		if srv != nil {
			srv.stop()
		}
		var err error
		srv, err = startServer(filepath.Join(base, fmt.Sprint(started)), tr)
		started++
		return err
	}}
	if err := setups.before(); !o.check(err == nil, "service setup: %v", err) {
		return o
	}
	cl := srv.cl
	clock := newHostClock()

	light := lightBatches(e.seed, e.measure)
	segs := max(1, int((e.measure+serviceSegment/2)/serviceSegment))
	segLen := e.measure / time.Duration(segs)
	var heavy []*batchRun
	var windows []window
	var genLateMax time.Duration
	var backlogFirst, backlogSecond []float64
	// Scheduler and runner state at the start and end of the light
	// schedule, which spans the measured segments.
	var st0, st1 runner.Stats
	var depthEnd int
	var st0Err, st1Err error
	seedNext := e.seed*1_000_000 + 500_000

	// lightSegment runs, open loop, the light batches due in segment k,
	// which started at from.
	lightSegment := func(k int, from time.Time) {
		lo := time.Duration(k) * segLen
		var seg []*batchRun
		for _, b := range light {
			if b.at >= lo && b.at < lo+segLen {
				b.due = from.Add(b.at - lo)
				seg = append(seg, b)
			}
		}
		if k == 0 {
			_, st0, st0Err = cl.debugQueue()
		}
		for i, b := range seg {
			if d := time.Until(b.due); d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			genLateMax = max(genLateMax, now.Sub(b.due))
			// Backlog: batches due by now that have not completed.
			due := 0
			for _, x := range seg[i:] {
				if x.due.After(now) {
					break
				}
				due++
			}
			if b.at < e.measure/2 {
				backlogFirst = append(backlogFirst, float64(due))
			} else {
				backlogSecond = append(backlogSecond, float64(due))
			}
			cl.submit(b, fmt.Sprintf("light%d", b.index))
			cl.follow(b)
			cl.fetch(b, jobNames(b))
			b.finished = time.Now()
		}
		if k == segs-1 {
			depthEnd, st1, st1Err = cl.debugQueue()
		}
	}
	// heavySegment keeps heavyBacklog heavy batches outstanding, closed
	// loop, until the segment ends, and then follows the rest to done.
	heavySegment := func(until time.Time, warm bool) {
		var open []*batchRun
		for {
			for time.Now().Before(until) && len(open) < heavyBacklog {
				b := &batchRun{client: "heavy", warm: warm}
				for j := 0; j < heavyJobs; j++ {
					s := heavySpec
					seedNext++
					s.Seed = seedNext
					b.jobs = append(b.jobs, jobRequest(fmt.Sprintf("s%d", j), s))
				}
				cl.submit(b, fmt.Sprintf("heavy%d", len(heavy)))
				heavy = append(heavy, b)
				open = append(open, b)
			}
			if len(open) == 0 {
				return
			}
			b := open[0]
			open = open[1:]
			cl.follow(b)
			// One sampled artifact per heavy batch joins the parity check.
			cl.fetch(b, jobNames(b)[:1])
			b.finished = time.Now()
		}
	}
	// The heavy tenant alone first runs for serviceWarmup, so that the
	// measured segments see a server whose heap, session pool and cache
	// directory have reached their steady state. Every segment ends with
	// the tenants' batches drained, so each starts from empty queues: a run
	// is segs samples of the server's steady state rather than one whose
	// backlog carries its history along. Over the same minutes, ten runs
	// cut this way spread 5–8 % (batch_p95_ms 12 %), five uncut ones 11–12 %.
	// Between segments, with the server idle, the host is sampled.
	heavySegment(time.Now().Add(serviceWarmup), true)
	for i := 0; i < serviceSlices; i++ {
		clock.sample()
	}
	for k := 0; k < segs; k++ {
		from := time.Now()
		w := window{from, from.Add(segLen)}
		windows = append(windows, w)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); lightSegment(k, from) }()
		go func() { defer wg.Done(); heavySegment(w.to, false) }()
		wg.Wait()
		for i := 0; i < serviceSlices; i++ {
			clock.sample()
		}
	}
	o.check(st0Err == nil, "%v", st0Err)
	o.check(st1Err == nil, "%v", st1Err)
	srv.stop()
	// The rest of the set-ups run after the window, untraced.
	srv, tr = nil, nil
	setup, err := setups.finish()
	o.metrics["setup_s"] = setup
	if o.check(err == nil, "service setup: %v", err) {
		srv.stop()
	}

	// Server-vs-CLI parity: every fetched artifact must equal the local
	// rendering of its spec; a mismatch fails its batch too.
	serviceParity(o, append(append([]*batchRun(nil), light...), heavy...))

	// Latencies, throughput and failures.
	var latMs, queueWait, finalize, runMs, turnaround []float64
	// Throughput counts the jobs that finished inside each measured
	// segment, per second of it; the run reports the median segment.
	measured := e.measure.Seconds()
	heavyDone, flowSec := make([]float64, segs), make([]float64, segs)
	lightFlows, heavyFlows := float64(flowsOf(lightSpec)), float64(flowsOf(heavySpec))
	for _, b := range append(append([]*batchRun(nil), light...), heavy...) {
		o.attempted++
		isLight := b.client != "heavy"
		if b.fail != "" {
			o.failed++
			o.note("failed %s batch %s: %s", b.client, b.id, b.fail)
			if isLight {
				latMs = append(latMs, math.Inf(1))
			}
		} else if isLight {
			latMs = append(latMs, ms(b.finished.Sub(b.due)))
		} else {
			if !b.warm {
				turnaround = append(turnaround, b.finished.Sub(b.posted).Seconds())
			}
		}
		started := map[string]time.Time{}
		var lastDone time.Time
		for _, ev := range b.events {
			at := eventTime(ev)
			switch ev.Type {
			case "start":
				started[ev.Job] = at
				if isLight {
					queueWait = append(queueWait, ms(at.Sub(b.accepted)))
				}
			case "cached":
				lastDone = at
				if isLight {
					queueWait = append(queueWait, ms(at.Sub(b.accepted)))
				}
			case "done":
				lastDone = at
				if s, ok := started[ev.Job]; ok {
					runMs = append(runMs, ms(at.Sub(s)))
				}
				if k := segmentOf(windows, at); k >= 0 {
					if isLight {
						flowSec[k] += lightFlows * lightSpec.Duration.Seconds()
					} else {
						heavyDone[k]++
						flowSec[k] += heavyFlows * heavySpec.Duration.Seconds()
					}
				}
			case "batch-done":
				if isLight && !lastDone.IsZero() {
					finalize = append(finalize, ms(at.Sub(lastDone)))
				}
			}
		}
	}
	// A failed light batch misses every latency limit; it is reported as
	// the whole window rather than as infinity.
	for i, v := range latMs {
		if math.IsInf(v, 1) {
			latMs[i] = 1000 * measured
		}
	}
	m := o.metrics
	slow := clock.slowdown()
	m["wall_s"] = quantile(turnaround, 0.5) / slow
	m["flowsec_per_s"] = quantile(flowSec, 0.5) / segLen.Seconds() * slow
	m["batch_p50_ms"] = quantile(latMs, 0.5) / slow
	m["batch_p95_ms"] = quantile(latMs, 0.95) / slow
	m["heavy_jobs_per_s"] = quantile(heavyDone, 0.5) / segLen.Seconds() * slow
	o.note("%d light batches (n for batch_p50/p95), %d heavy batches, %d segments of %v; wall_s = heavy batch turnaround",
		len(light), len(heavy), segs, segLen)
	o.note("host wall time: wall_s %.4f s, flowsec_per_s %.1f, batch_p50_ms %.2f, batch_p95_ms %.2f, heavy_jobs_per_s %.2f; "+
		"%d reference slices between the segments took %.2f ms on average, a slowdown of %.3f against the reference host",
		m["wall_s"]*slow, m["flowsec_per_s"]/slow, m["batch_p50_ms"]*slow, m["batch_p95_ms"]*slow, m["heavy_jobs_per_s"]/slow,
		len(clock.slices), 1000*slow*refSlice.Seconds(), slow)

	executed, hits := st1.Executed-st0.Executed, st1.CacheHits-st0.CacheHits
	m["runner.executed"] = float64(executed)
	m["runner.cache_hits"] = float64(hits)
	m["runner.cache_hit_ratio"] = float64(hits) / float64(max(executed+hits, 1))
	m["runner.run_ms_p50"] = quantile(runMs, 0.5)
	m["service.queue_wait_ms_p50"] = quantile(queueWait, 0.5)
	m["service.queue_wait_ms_p95"] = quantile(queueWait, 0.95)
	m["service.finalize_ms_p95"] = quantile(finalize, 0.95)
	m["service.backlog_end"] = float64(depthEnd)
	m["service.gen_late_ms_max"] = ms(genLateMax)
	m["http.submit_ms_p50"] = quantile(cl.submitMs, 0.5)
	m["http.submit_ms_p95"] = quantile(cl.submitMs, 0.95)
	m["http.artifact_ms_p50"] = quantile(cl.artifactMs, 0.5)
	m["http.rejected"] = float64(cl.rejected)

	// Open-loop hygiene: the light generator must keep up. A backlog of
	// due-but-unfinished light batches that grows from the first half of
	// the window to the second means the offered rate exceeds capacity
	// and the latencies describe a queue, not the service.
	b1, b2 := quantile(backlogFirst, 0.5), quantile(backlogSecond, 0.5)
	o.check(b2 <= max(b1, 1)+1, "run invalid: light backlog grew from %.0f to %.0f batches over the run", b1, b2)

	if e.tr != nil {
		perSpan := spanCost()
		spans := float64(e.tr.len())
		m["trace.overhead_pct"] = 100 * perSpan.Seconds() * spans / measured / serviceWorkers
		o.note("trace overhead: estimated as %d spans × %v per span (the traced calls are HTTP round trips; "+
			"the server itself is not instrumented)", int(spans), perSpan)
		o.note("sim.*, netem.*, endpoint.*, cca.*, network.*, obs.*: the simulations run inside the server; not measured on this workload")
	}
	return o
}

// serviceParity re-runs every fetched artifact's spec locally, two at a
// time, and compares the bytes.
func serviceParity(o *outcome, batches []*batchRun) {
	type item struct {
		spec scenario.PopulationSpec
		got  []byte
		b    *batchRun
		job  string
	}
	var items []item
	for _, b := range batches {
		for _, j := range b.jobs {
			if data, ok := b.artifacts[j.Name]; ok {
				items = append(items, item{specOf(j), data, b, j.Name})
			}
		}
	}
	want := map[scenario.PopulationSpec]string{}
	var mu sync.Mutex
	work := make(chan scenario.PopulationSpec)
	var wg sync.WaitGroup
	for w := 0; w < serviceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				text := "error"
				if r, err := s.Run(); err == nil {
					text = r.Render()
				}
				mu.Lock()
				want[s] = text
				mu.Unlock()
			}
		}()
	}
	seen := map[scenario.PopulationSpec]bool{}
	for _, it := range items {
		if !seen[it.spec] {
			seen[it.spec] = true
			work <- it.spec
		}
	}
	close(work)
	wg.Wait()
	for _, it := range items {
		if !o.check(want[it.spec] == string(it.got), "artifact %s/%s differs from local PopulationSpec.Run().Render()", it.b.id, it.job) {
			it.b.failf("artifact %s mismatch", it.job)
		}
	}
	o.note("parity: %d artifacts compared against %d local runs", len(items), len(want))
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.do("calibrate", "noop", 0, func(int64) {})
	}
	return time.Since(start) / n
}
