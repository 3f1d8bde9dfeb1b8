package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"starvation/internal/core"
	"starvation/internal/guard"
	"starvation/internal/network"
	"starvation/internal/runner"
	"starvation/internal/scenario"
)

// The sweep workload runs core.PopulationSweep with one worker over a
// list of seeds drawn from the workload seed (closed loop): many short
// realizations of one mixed-CCA population with the flight recorder and
// the guard on. One PopulationSweep call over a block of the list is one
// pass; passes cycle through the blocks until the measuring time is used
// up, at least one cycle, with a reference slice after each. Many short
// passes between slices let the slices follow the host's drift, and the
// population's cost hardly depends on the seed. One worker, because the
// reference slices track a single busy core far better than two: over the
// same minutes, two workers against two-goroutine slices spread 9–10 %
// from one 20 s window to the next, one worker against one 3–6 %.

const (
	sweepSeeds = 192
	sweepBlock = 4 // seeds per pass
	sweepJobs  = 1
)

var sweepSpec = scenario.PopulationSpec{
	// The jitter sits on the reno cohort, not on bbr: BBR under forward
	// jitter runs away on about 1 realization in 130 (README.md), which
	// would make a pass's cost depend on whether its seeds hit one.
	Flows:      "vegas*4;reno*4:jitter=uniform:2ms;cubic*4:rm=80ms;copa*2;bbr*2",
	Topology:   "parkinglot:2",
	RateMbps:   48,
	BufferPkts: 100,
	Duration:   3 * time.Second,
}

// sweepConfig builds one realization's configuration.
func sweepConfig(seed int64) (core.PopulationConfig, error) {
	s := sweepSpec
	s.Seed = seed
	cfg, err := s.Config()
	cfg.Guard = &guard.Options{}
	cfg.Telemetry = &network.TelemetryConfig{}
	return cfg, err
}

func sweepSeedList(seed int64) []int64 {
	seeds := make([]int64, sweepSeeds)
	for i := range seeds {
		seeds[i] = seed*1000 + int64(i) + 1
	}
	return seeds
}

// sweepPass is one pass's outcome.
type sweepPass struct {
	wall     time.Duration
	hashes   [][32]byte // Render() hash per seed index
	counts   counts
	problems []string
	// Filled by the traced pass only.
	runMs, renderUs []float64
	calls           map[string]*callStats
	runNs           int64
}

// checkRealization verifies one realization, given its Render() text, and
// folds it into the pass.
func (p *sweepPass) checkRealization(i int, r *core.PopulationResult, text string) {
	p.hashes[i] = sha256.Sum256([]byte(text))
	p.counts.add(r.Net)
	if r.Net.Guard == nil || !r.Net.Guard.Ok() {
		p.problems = append(p.problems, fmt.Sprintf("seed %d: guard report not clean: %v", r.Seed, r.Net.Guard))
	}
	if err := r.Net.Ledger.Check(); err != nil {
		p.problems = append(p.problems, fmt.Sprintf("seed %d: conservation ledger: %v", r.Seed, err))
	}
}

// runSweepPass is the measured unit: one PopulationSweep call.
func runSweepPass(seeds []int64) *sweepPass {
	p := &sweepPass{hashes: make([][32]byte, len(seeds))}
	start := time.Now()
	res, err := core.PopulationSweep(context.Background(), seeds, sweepJobs, sweepConfig)
	p.wall = time.Since(start)
	if err != nil {
		p.problems = append(p.problems, fmt.Sprintf("PopulationSweep: %v", err))
		return p
	}
	for i, r := range res {
		p.checkRealization(i, r, r.Render())
	}
	return p
}

// runSweepPassTraced runs the same realizations as PopulationSweep does —
// sweepJobs workers, one recycled session each — but from the benchmark's
// own loop, so that every RunPopulation and Render call gets a span and
// every CCA callback is timed.
func runSweepPassTraced(seeds []int64, tr *tracer) *sweepPass {
	p := &sweepPass{hashes: make([][32]byte, len(seeds)), calls: map[string]*callStats{}}
	results := make([]*core.PopulationResult, len(seeds))
	stats := make([]map[string]*callStats, len(seeds))
	runMs := make([]float64, len(seeds))
	renderUs := make([]float64, len(seeds))
	renders := make([]string, len(seeds))
	sessions := make([]*network.Session, runner.Workers(sweepJobs, len(seeds)))
	start := time.Now()
	err := runner.ForEachWorker(context.Background(), sweepJobs, len(seeds), func(ctx context.Context, w, i int) error {
		if sessions[w] == nil {
			sessions[w] = network.NewSession()
		}
		traceID := fmt.Sprintf("r%d", seeds[i])
		cfg, err := sweepConfig(seeds[i])
		if err != nil {
			return err
		}
		byAlg := map[string]*callStats{}
		for j := range cfg.Flows {
			name := cfg.Flows[j].Alg.Name()
			if byAlg[name] == nil {
				byAlg[name] = &callStats{}
			}
			cfg.Flows[j].Alg = wrapAlg(cfg.Flows[j].Alg, byAlg[name])
		}
		cfg.Seed = seeds[i]
		cfg.Ctx = ctx
		cfg.Session = sessions[w]
		var r *core.PopulationResult
		d := tr.do(traceID, "core.run_population", 0, func(id int64) {
			r, err = core.RunPopulation(cfg)
			for name, st := range byAlg {
				for k := 0; k < numCallbacks; k++ {
					tr.rollup(traceID, "cca."+name+"."+callbackNames[k], id, st.calls[k], time.Duration(st.ns[k]))
				}
			}
		})
		if err != nil {
			return err
		}
		rd := tr.do(traceID, "core.render", 0, func(int64) { renders[i] = r.Render() })
		results[i], stats[i], runMs[i], renderUs[i] = r, byAlg, ms(d), float64(rd)/float64(time.Microsecond)
		return nil
	})
	p.wall = time.Since(start)
	if err != nil {
		p.problems = append(p.problems, fmt.Sprintf("traced sweep: %v", err))
		return p
	}
	for i, r := range results {
		p.checkRealization(i, r, renders[i])
		for name, st := range stats[i] {
			agg := p.calls[name]
			if agg == nil {
				agg = &callStats{}
				p.calls[name] = agg
			}
			for k := 0; k < numCallbacks; k++ {
				agg.calls[k] += st.calls[k]
				agg.ns[k] += st.ns[k]
			}
		}
		p.runNs += int64(runMs[i] * 1e6)
	}
	p.runMs, p.renderUs = runMs, renderUs
	return p
}

// sweepSetup is what a sweep client pays before its first realization:
// validating the spec (which assembles one network) and one short warm-up
// realization of the sweep's shape.
func sweepSetup(seed int64) error {
	if err := sweepSpec.Validate(); err != nil {
		return err
	}
	cfg, err := sweepConfig(seed)
	if err != nil {
		return err
	}
	cfg.Duration = 500 * time.Millisecond
	_, err = core.RunPopulation(cfg)
	return err
}

// freshParity checks one sampled seed: the session path's Render() must
// be byte-equal to a run on a freshly built network (RunPopulation without
// a session goes through network.NewChecked).
func freshParity(o *outcome, seed int64, want [32]byte) {
	cfg, err := sweepConfig(seed)
	if err == nil {
		var r *core.PopulationResult
		if r, err = core.RunPopulation(cfg); err == nil {
			o.check(sha256.Sum256([]byte(r.Render())) == want,
				"seed %d: session-path Render() differs from a fresh network.NewChecked run", seed)
		}
	}
	o.check(err == nil, "parity seed %d: %v", seed, err)
}

func runSweep(e env) *outcome {
	o := newOutcome()
	setups := &setupTimer{run: func() error { return sweepSetup(e.seed) }}
	if err := setups.before(); !o.check(err == nil, "sweep setup: %v", err) {
		return o
	}
	seeds := sweepSeedList(e.seed)
	cfg, _ := sweepConfig(seeds[0])
	// The traced run makes three passes over the whole list: untraced,
	// traced, untraced.
	blockSize := sweepBlock
	if e.tr != nil {
		blockSize = len(seeds)
	}
	block := func(b int) []int64 { return seeds[b*blockSize : (b+1)*blockSize] }
	flowSecPerPass := float64(blockSize*len(cfg.Flows)) * sweepSpec.Duration.Seconds()

	// accept checks a pass against the first pass over the same block.
	firsts := make([]*sweepPass, len(seeds)/blockSize)
	accept := func(b int, p *sweepPass, label string) {
		o.attempted += blockSize
		o.failed += len(p.problems)
		o.problems = append(o.problems, p.problems...)
		first := firsts[b]
		if first == nil {
			firsts[b] = p
			return
		}
		for i, seed := range block(b) {
			o.check(p.hashes[i] == first.hashes[i], "%s: seed %d realization differs from the first pass", label, seed)
		}
		x, y := first.counts.identity(true), p.counts.identity(true)
		for k, v := range x {
			o.check(y[k] == v, "%s: %s = %d, first pass %d", label, k, y[k], v)
		}
	}

	if e.tr != nil {
		// As on paper, the overhead compares the traced pass with an
		// untraced pass after it; the first pass warms the process up.
		accept(0, runSweepPass(seeds), "warm-up pass")
		traced := runSweepPassTraced(seeds, e.tr)
		accept(0, traced, "traced pass")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		untraced := runSweepPass(seeds)
		runtime.ReadMemStats(&after)
		accept(0, untraced, "untraced pass")
		m := o.metrics
		traced.counts.layerMetrics(m)
		runNs := float64(traced.runNs)
		m["sim.ns_per_event"] = runNs / float64(traced.counts.fired)
		m["netem.ns_per_pkt"] = runNs / float64(traced.counts.delivered)
		for _, name := range ccaNames {
			st := traced.calls[name]
			if st == nil {
				continue
			}
			var calls, ns int64
			for k := 0; k < numCallbacks; k++ {
				calls += st.calls[k]
				ns += st.ns[k]
			}
			m["cca."+name+".calls"] = float64(calls)
			m["cca."+name+".ns_per_call"] = float64(ns) / float64(max(calls, 1))
			m["cca."+name+".share"] = float64(ns) / runNs
		}
		m["network.run_ms_p50"] = quantile(traced.runMs, 0.5)
		m["core.render_us_p50"] = quantile(traced.renderUs, 0.5)
		m["network.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(len(seeds))
		m["network.bytes_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(seeds))
		var builds []float64
		for i := 0; i < 5; i++ {
			cfg, err := sweepConfig(seeds[i])
			if !o.check(err == nil, "build: %v", err) {
				break
			}
			ncfg := network.Config{Links: cfg.Links, Bottleneck: cfg.Bottleneck, Seed: cfg.Seed, Guard: cfg.Guard, Telemetry: cfg.Telemetry}
			start := time.Now()
			_, err = network.NewChecked(ncfg, cfg.Flows...)
			builds = append(builds, ms(time.Since(start)))
			o.check(err == nil, "network.NewChecked: %v", err)
		}
		m["network.build_ms"] = quantile(builds, 0.5)
		m["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds()
		o.note("trace overhead: traced pass %.3fs vs untraced PopulationSweep pass %.3fs", traced.wall.Seconds(), untraced.wall.Seconds())
		o.note("sim.ns_per_event, netem.ns_per_pkt: RunPopulation wall time per event / per delivered packet; " +
			"the layers' self time is not separable from outside")
		o.note("network.allocs_per_run, network.bytes_per_run: process-wide over one PopulationSweep pass, per realization (includes Config())")
		o.identity["alloc.network.allocs_per_run"] = int64(m["network.allocs_per_run"])
	} else {
		var walls []float64
		clock := newHostClock()
		start := time.Now()
		for pass := 0; pass < len(firsts) || time.Since(start) < e.measure; pass++ {
			b := pass % len(firsts)
			p := runSweepPass(block(b))
			accept(b, p, fmt.Sprintf("pass %d", pass))
			clock.sample()
			if err := setups.step(start, e.measure); !o.check(err == nil, "sweep setup: %v", err) {
				return o
			}
			walls = append(walls, p.wall.Seconds())
		}
		passes := float64(len(walls))
		// A realization's latency is not observable from outside
		// PopulationSweep; the batch a sweep client waits on is the pass.
		setPassMetrics(o, clock, walls, passes*flowSecPerPass, passes*float64(blockSize))
		o.note("%d passes of %d realizations (%d flows × %v each, jobs=%d); batch = one pass; "+
			"batch_p50_ms, batch_p95_ms and heavy_jobs_per_s are aliases of wall_s and flowsec_per_s",
			len(walls), blockSize, len(cfg.Flows), sweepSpec.Duration, sweepJobs)
	}
	setup, err := setups.finish()
	o.metrics["setup_s"] = setup
	o.check(err == nil, "sweep setup: %v", err)
	freshParity(o, seeds[0], firsts[0].hashes[0])
	// The identity covers the whole seed list, however it was split.
	var whole counts
	var h hasher
	for _, f := range firsts {
		whole.plus(f.counts)
		for _, x := range f.hashes {
			h.add(x)
		}
	}
	for k, v := range whole.identity(true) {
		o.identity[k] = v
	}
	o.identity["hash.realization"] = h.prefix()
	return o
}
