package network

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/guard"
	"starvation/internal/units"
)

// sessionScenario builds a small two-flow contest whose realization varies
// with seed and rate, for reuse-vs-fresh comparisons.
func sessionScenario(seed int64, rate units.Rate) goldenConfig {
	return goldenConfig{
		cfg: Config{Links: SingleBottleneck(rate, 32*1500), Seed: seed},
		specs: []FlowSpec{
			{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
			{Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond},
		},
		d: 2 * time.Second,
	}
}

// TestSessionFreshVsReusedParity is the session's correctness contract: a
// realization run through a reused session hashes bit-identically to the
// same configuration run through a fresh network.New — across repeated
// passes, interleaved shapes (the cache cycles between the clean and
// impaired golden scenarios), and with telemetry on. It also pins result
// detachment: an earlier pass's Result must hash the same after later runs
// recycle the session's buffers.
func TestSessionFreshVsReusedParity(t *testing.T) {
	for _, tc := range []*TelemetryConfig{nil, {}} {
		name := "plain"
		if tc != nil {
			name = "telemetry"
		}
		t.Run(name, func(t *testing.T) {
			fresh := map[string]string{}
			for sc, run := range goldenScenarios(tc) {
				fresh[sc] = hashResult(t, run())
			}
			s := NewSession()
			held := map[string]*Result{}
			for pass := 0; pass < 3; pass++ {
				for sc, build := range goldenConfigs(tc) {
					gc := build()
					res, err := s.Run(gc.cfg, gc.d, gc.specs...)
					if err != nil {
						t.Fatalf("pass %d %s: %v", pass, sc, err)
					}
					if h := hashResult(t, res); h != fresh[sc] {
						t.Errorf("pass %d %s: reused session diverged from fresh network: got %s want %s",
							pass, sc, h, fresh[sc])
					}
					if pass == 0 {
						held[sc] = res
					}
				}
			}
			for sc, res := range held {
				if h := hashResult(t, res); h != fresh[sc] {
					t.Errorf("%s: first-pass result was clobbered by later session runs (hash now %s, want %s)",
						sc, h, fresh[sc])
				}
			}
		})
	}
}

// TestSessionParameterChangesReset pins that a shape-stable parameter
// change (seed, rate) fully resets the recycled network: running A, then
// B, then A again through one session reproduces A's fresh hash — no state
// from B leaks into the second A.
func TestSessionParameterChangesReset(t *testing.T) {
	hash := func(gc goldenConfig) string {
		n := New(gc.cfg, gc.specs...)
		return hashResult(t, n.Run(gc.d))
	}
	a := hash(sessionScenario(3, units.Mbps(40)))
	b := hash(sessionScenario(8, units.Mbps(12)))
	if a == b {
		t.Fatal("scenarios A and B should differ")
	}
	s := NewSession()
	for i, want := range []string{a, b, a, b, b, a} {
		gc := sessionScenario(3, units.Mbps(40))
		if want == b {
			gc = sessionScenario(8, units.Mbps(12))
		}
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if h := hashResult(t, res); h != want {
			t.Errorf("run %d: got %s want %s", i, h, want)
		}
	}
}

// TestSessionHopDelayAppearsOnReset: a hop delay is a resettable
// parameter, and a link builds its hop delay line only once it has one. A
// session that first runs a parking lot with zero hop delay and then the
// same shape with a real one must match a fresh network of the second.
func TestSessionHopDelayAppearsOnReset(t *testing.T) {
	lot := func(hop time.Duration) goldenConfig {
		gc := sessionScenario(5, 0)
		gc.cfg.Links = ParkingLot(2, units.Mbps(20), 32*1500, hop)
		return gc
	}
	hash := func(gc goldenConfig) string {
		n := New(gc.cfg, gc.specs...)
		return hashResult(t, n.Run(gc.d))
	}
	want := hash(lot(3 * time.Millisecond))
	if want == hash(lot(0)) {
		t.Fatal("the hop delay should change the realization")
	}
	s := NewSession()
	for i, hop := range []time.Duration{0, 3 * time.Millisecond} {
		gc := lot(hop)
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if hop > 0 {
			if h := hashResult(t, res); h != want {
				t.Errorf("run %d: reused session got %s, fresh network %s", i, h, want)
			}
		}
	}
}

// TestSessionGuardParity pins that guarded session runs match guarded
// fresh runs (the monitor is recycled via Reset), and that toggling the
// guard off between runs leaves no monitor behind.
func TestSessionGuardParity(t *testing.T) {
	gopts := &guard.Options{}
	withGuard := func(gc goldenConfig) goldenConfig {
		gc.cfg.Guard = gopts
		return gc
	}
	gc := withGuard(sessionScenario(5, units.Mbps(30)))
	freshRes := New(gc.cfg, gc.specs...).Run(gc.d)
	if freshRes.Guard == nil {
		t.Fatal("fresh guarded run has no guard report")
	}
	fresh := hashResult(t, freshRes)

	s := NewSession()
	for i := 0; i < 3; i++ {
		// Alternate guarded and unguarded runs of the same shape.
		gc := withGuard(sessionScenario(5, units.Mbps(30)))
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Guard == nil {
			t.Fatalf("run %d: guarded session run has no guard report", i)
		}
		if h := hashResult(t, res); h != fresh {
			t.Errorf("run %d: guarded session diverged: got %s want %s", i, h, fresh)
		}
		plain := sessionScenario(5, units.Mbps(30))
		resPlain, err := s.Run(plain.cfg, plain.d, plain.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if resPlain.Guard != nil {
			t.Fatalf("run %d: unguarded session run reports a guard", i)
		}
	}
}

// TestSessionShapeChangeRebuilds pins the cache key: configurations with
// different construction-time shape (impairment elements present, path
// layout, link count) run on distinct cached networks, and each still
// matches its fresh hash when revisited.
func TestSessionShapeChangeRebuilds(t *testing.T) {
	shapes := []func() goldenConfig{
		func() goldenConfig { return sessionScenario(4, units.Mbps(24)) },
		func() goldenConfig { // adds a loss gate to flow 0: different chain shape
			gc := sessionScenario(4, units.Mbps(24))
			gc.specs[0].LossProb = 0.02
			return gc
		},
		func() goldenConfig { // two-link parking lot: different link count
			gc := sessionScenario(4, units.Mbps(24))
			gc.cfg = Config{
				Links: ParkingLot(2, units.Mbps(24), 32*1500, 2*time.Millisecond),
				Seed:  4,
			}
			return gc
		},
	}
	fresh := make([]string, len(shapes))
	for i, build := range shapes {
		gc := build()
		fresh[i] = hashResult(t, New(gc.cfg, gc.specs...).Run(gc.d))
	}
	s := NewSession()
	for pass := 0; pass < 2; pass++ {
		for i, build := range shapes {
			gc := build()
			res, err := s.Run(gc.cfg, gc.d, gc.specs...)
			if err != nil {
				t.Fatal(err)
			}
			if h := hashResult(t, res); h != fresh[i] {
				t.Errorf("pass %d shape %d: got %s want %s", pass, i, h, fresh[i])
			}
		}
	}
	if got := len(s.nets); got != len(shapes) {
		t.Errorf("session cached %d networks, want %d (one per shape)", got, len(shapes))
	}
}

// TestSessionValidation pins that the session rejects exactly what
// NewChecked rejects, without caching anything for invalid configs.
func TestSessionValidation(t *testing.T) {
	s := NewSession()
	if _, err := s.Run(Config{}, time.Second); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := s.Run(Config{Links: SingleBottleneck(units.Mbps(10), 0)}, time.Second,
		FlowSpec{Rm: time.Millisecond}); err == nil {
		t.Error("flow without CCA accepted")
	}
	if len(s.nets) != 0 {
		t.Errorf("invalid configs left %d cached networks", len(s.nets))
	}
}

// TestNewLeavesCallerConfigUnchanged pins that building or resetting a
// network never writes defaults into the caller's config: default link and
// flow names go into network-owned copies. Two concurrent builds over one
// shared, unnamed Links slice must therefore not race (run under -race).
func TestNewLeavesCallerConfigUnchanged(t *testing.T) {
	links := []LinkSpec{{Rate: units.Mbps(12), BufferBytes: 16 * 1500}}
	specs := func() []FlowSpec {
		return []FlowSpec{{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond}}
	}
	check := func(what string, fs []FlowSpec) {
		t.Helper()
		if links[0].Name != "" {
			t.Errorf("%s wrote link name %q into the caller's Links", what, links[0].Name)
		}
		if fs[0].Name != "" {
			t.Errorf("%s wrote flow name %q into the caller's specs", what, fs[0].Name)
		}
	}
	const d = 200 * time.Millisecond

	fs := specs()
	res := New(Config{Links: links, Seed: 1}, fs...).Run(d)
	check("New", fs)
	if res.Links[0].Name != "link0" || res.Flows[0].Name != "flow0" {
		t.Errorf("defaults not applied to the run: link %q, flow %q", res.Links[0].Name, res.Flows[0].Name)
	}
	s := NewSession()
	for _, what := range []string{"Session.Run (build)", "Session.Run (reset)"} {
		fs := specs()
		if _, err := s.Run(Config{Links: links, Seed: 1}, d, fs...); err != nil {
			t.Fatal(err)
		}
		check(what, fs)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			New(Config{Links: links, Seed: 1}, specs()...)
		}()
	}
	wg.Wait()
	check("concurrent New", specs())
}

// TestSessionPoolWorkersDeterministic is the concurrency property test:
// many goroutines, one pooled session each, each running every seed of a
// sweep. Under -race this pins single-owner sessions as data-race free,
// and the per-seed hashes must be identical across workers and equal to
// the fresh-network hashes — deterministic results independent of which
// worker (and thus which recycled arena) ran the realization.
func TestSessionPoolWorkersDeterministic(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	fresh := make([]string, len(seeds))
	for i, seed := range seeds {
		gc := sessionScenario(seed, units.Mbps(20))
		fresh[i] = hashResult(t, New(gc.cfg, gc.specs...).Run(gc.d))
	}
	pool := NewSessionPool()
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := pool.Get()
			defer pool.Put(s)
			for i, seed := range seeds {
				gc := sessionScenario(seed, units.Mbps(20))
				res, err := s.Run(gc.cfg, gc.d, gc.specs...)
				if err != nil {
					errs <- fmt.Errorf("worker %d seed %d: %w", w, seed, err)
					return
				}
				if h := hashResultQuiet(res); h != fresh[i] {
					errs <- fmt.Errorf("worker %d seed %d: hash %s, want %s", w, seed, h, fresh[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
