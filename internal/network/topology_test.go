package network

import (
	"testing"
	"time"

	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	"starvation/internal/guard"
	"starvation/internal/units"
)

// TestSingleBottleneckMatchesUnnamedLink pins that a link's name is only a
// label: SingleBottleneck ("bottleneck") and an unnamed LinkSpec (named
// "link0" by default) of the same rate and buffer produce the same
// realization.
func TestSingleBottleneckMatchesUnnamedLink(t *testing.T) {
	specs := func() []FlowSpec {
		return []FlowSpec{
			{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
			{Alg: reno.New(reno.Config{}), Rm: 80 * time.Millisecond, StartAt: 200 * time.Millisecond},
		}
	}
	named := New(Config{Links: SingleBottleneck(units.Mbps(24), 32*1500), Seed: 3}, specs()...).Run(4 * time.Second)
	unnamed := New(Config{
		Links: []LinkSpec{{Rate: units.Mbps(24), BufferBytes: 32 * 1500}},
		Seed:  3,
	}, specs()...).Run(4 * time.Second)
	if named.Links[0].Name != "bottleneck" || unnamed.Links[0].Name != "link0" {
		t.Errorf("link names %q, %q; want bottleneck, link0", named.Links[0].Name, unnamed.Links[0].Name)
	}
	for i := range named.Flows {
		nw, uw := named.Flows[i].Stat.AckedBytes, unnamed.Flows[i].Stat.AckedBytes
		if nw != uw {
			t.Errorf("flow %d: acked bytes diverge: named %d, unnamed %d", i, nw, uw)
		}
	}
	if named.Dropped != unnamed.Dropped {
		t.Errorf("drops diverge: named %d, unnamed %d", named.Dropped, unnamed.Dropped)
	}
	if named.Obs.Global != unnamed.Obs.Global {
		t.Errorf("global counters diverge:\nnamed   %+v\nunnamed %+v", named.Obs.Global, unnamed.Obs.Global)
	}
}

// runParkingLot wires two long flows over a 3-hop chain against one-hop
// cross traffic on the middle hop.
func runParkingLot(t *testing.T, guardOpts *guard.Options) *Result {
	t.Helper()
	n := New(Config{
		Links: ParkingLot(3, units.Mbps(20), 32*1500, 2*time.Millisecond),
		Seed:  5,
		Guard: guardOpts,
	},
		FlowSpec{Name: "long0", Cohort: "long", Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
		FlowSpec{Name: "long1", Cohort: "long", Alg: reno.New(reno.Config{}), Rm: 60 * time.Millisecond},
		FlowSpec{Name: "cross", Cohort: "cross", Alg: reno.New(reno.Config{}), Rm: 20 * time.Millisecond, Path: []int{1}},
	)
	return n.Run(5 * time.Second)
}

// TestParkingLotConservation checks the multi-hop ledger: packets can rest
// between hops or drop mid-path, and every segment equation must still
// balance. The run-guard layer's end-of-run checks must also stay clean.
func TestParkingLotConservation(t *testing.T) {
	res := runParkingLot(t, &guard.Options{})
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("parking-lot ledger: %v", err)
	}
	if res.Guard == nil || !res.Guard.Ok() {
		t.Fatalf("guard report not clean: %v", res.Guard)
	}
	if len(res.Links) != 3 {
		t.Fatalf("want 3 link results, got %d", len(res.Links))
	}
	// The cross flow shares only hop1; long flows traverse all three. All
	// flows must make progress.
	for i, f := range res.Flows {
		if f.Stat.AckedBytes == 0 {
			t.Errorf("flow %d (%s) made no progress", i, f.Name)
		}
	}
	// Multi-link topologies expose per-link queue traces.
	for j, l := range res.Links {
		if l.Queue == nil || l.Queue.Len() == 0 {
			t.Errorf("link %d (%s): no queue trace", j, l.Name)
		}
	}
	// Cohort labels must flow through to the obs snapshot and aggregate.
	cohorts := res.Obs.Cohorts()
	if len(cohorts) != 2 {
		t.Fatalf("want 2 cohorts, got %d: %+v", len(cohorts), cohorts)
	}
	if cohorts[0].Cohort != "cross" || cohorts[0].Flows != 1 {
		t.Errorf("cohort 0: got %q n=%d, want cross n=1", cohorts[0].Cohort, cohorts[0].Flows)
	}
	if cohorts[1].Cohort != "long" || cohorts[1].Flows != 2 {
		t.Errorf("cohort 1: got %q n=%d, want long n=2", cohorts[1].Cohort, cohorts[1].Flows)
	}
}

// TestFanInConservation checks the shared-uplink fan-in: flows enter on
// round-robin access links and contend at the uplink, where mid-path
// drops land in the DroppedMidPath ledger column.
func TestFanInConservation(t *testing.T) {
	links := FanIn(2, units.Mbps(40), 0, time.Millisecond, units.Mbps(12), 8*1500)
	specs := make([]FlowSpec, 4)
	for i := range specs {
		specs[i] = FlowSpec{
			Cohort: "vegas",
			Alg:    vegas.New(vegas.Config{}),
			Rm:     30 * time.Millisecond,
			Path:   FanInPath(i, 2),
		}
	}
	n := New(Config{Links: links, Bottleneck: 2, Seed: 9}, specs...)
	res := n.Run(5 * time.Second)
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("fan-in ledger: %v", err)
	}
	if res.LinkRate != units.Mbps(12) {
		t.Errorf("LinkRate should report the uplink: got %v", res.LinkRate)
	}
	// The tight uplink behind fat access links must shed load: those
	// drops are mid-path (hop 1) for every flow.
	var mid int64
	for _, fl := range res.Ledger.Flows {
		mid += fl.DroppedMidPath
		if fl.DroppedAtQueue != 0 {
			t.Errorf("flow %s: unexpected first-hop drop-tail %d (access links are unbuffered-infinite)", fl.Name, fl.DroppedAtQueue)
		}
	}
	if mid == 0 {
		t.Error("expected mid-path drops at the congested uplink, got none")
	}
	if res.Dropped != mid {
		t.Errorf("Result.Dropped (%d) should sum all link drops (%d)", res.Dropped, mid)
	}
}

// TestPathValidation covers the malformed-path diagnostics.
func TestPathValidation(t *testing.T) {
	links := ParkingLot(2, units.Mbps(10), 0, 0)
	base := FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond}
	for _, tc := range []struct {
		name string
		path []int
	}{
		{"out of range", []int{2}},
		{"revisit", []int{0, 1, 0}},
		{"empty non-nil", []int{}},
	} {
		spec := base
		spec.Path = tc.path
		if tc.path != nil && len(tc.path) == 0 {
			// validatePath distinguishes nil (default) from empty.
			if err := validatePath(tc.path, len(links)); err == nil {
				t.Errorf("%s: validatePath accepted %v", tc.name, tc.path)
			}
			continue
		}
		if _, err := NewChecked(Config{Links: links}, spec); err == nil {
			t.Errorf("%s: NewChecked accepted path %v", tc.name, tc.path)
		}
	}
	// A network needs links, and its reporting bottleneck must be one.
	if _, err := NewChecked(Config{}, base); err == nil {
		t.Error("NewChecked accepted a config without links")
	}
	if _, err := NewChecked(Config{Links: SingleBottleneck(units.Mbps(10), 0), Bottleneck: 1}, base); err == nil {
		t.Error("NewChecked accepted Bottleneck out of range")
	}
}
