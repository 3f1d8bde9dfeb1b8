// Population-scale scenarios: the paper proves starvation pairwise (two
// flows, Theorem 1); these experiments scale the same machinery to N-flow
// populations — mixed CCAs, heterogeneous RTTs, multi-hop topologies —
// and report the population starvation statistics (starved fraction under
// the ε·fair-share threshold, share-ratio quantiles, per-cohort Jain).

package scenario

import (
	"fmt"
	"math"
	"time"

	"starvation/internal/core"
	"starvation/internal/endpoint"
	"starvation/internal/units"

	// Population clauses may name any registered algorithm.
	_ "starvation/internal/cca/algo1"
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/bbr"
	_ "starvation/internal/cca/constwnd"
	_ "starvation/internal/cca/copa"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/fast"
	_ "starvation/internal/cca/ledbat"
	_ "starvation/internal/cca/reno"
	_ "starvation/internal/cca/vegas"
	_ "starvation/internal/cca/verus"
	_ "starvation/internal/cca/vivace"
)

// popParams fixes one population experiment's published parameters.
type popParams struct {
	id, desc, claim string
	// flows is a ParseFlows clause; topo a ParseTopology clause.
	flows, topo string
	// rate/bufferPkts parameterize the topology's bottleneck link(s).
	rateMbps   float64
	bufferPkts int
	dur        time.Duration
}

// runPopulationParams assembles and runs one population scenario. Clause
// strings are package constants, so parse errors are programming errors
// and panic like network.New does on bad specs.
func runPopulationParams(p popParams, o Opts) *Result {
	o.fill(p.dur)
	topo, err := ParseTopology(p.topo, units.Mbps(p.rateMbps), p.bufferPkts*endpoint.DefaultMSS)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", p.id, err))
	}
	specs, err := ParseFlows(p.flows, o.Seed, topo)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", p.id, err))
	}
	cfg := core.PopulationConfig{
		Flows:      specs,
		Links:      topo.Links,
		Bottleneck: topo.Bottleneck,
		Seed:       o.Seed,
		Duration:   o.Duration,
		Guard:      o.Guard,
		Probe:      o.Probe,
		Ctx:        o.Ctx,
		Telemetry:  o.Telemetry,
		Session:    o.Session,
	}
	pr, err := core.RunPopulation(cfg)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", p.id, err))
	}
	st := pr.Stats
	obsv := map[string]float64{
		"flows":           float64(st.N),
		"starved":         float64(st.Starved),
		"starved_frac":    st.StarvedFraction,
		"jain":            st.Jain,
		"share_p5":        st.ShareP5,
		"share_p50":       st.ShareP50,
		"share_p95":       st.ShareP95,
		"utilization_pct": 100 * pr.Net.Utilization(),
	}
	// max/min is +Inf when a flow got nothing; observables are plain
	// floats, so cap it to keep the table printable.
	if !math.IsInf(st.MaxOverMin, 1) {
		obsv["max_over_min"] = st.MaxOverMin
	}
	for _, c := range st.Cohorts {
		if c.Cohort != "" {
			obsv["starved_"+c.Cohort] = float64(c.Starved)
		}
	}
	return &Result{
		ID:          p.id,
		Description: p.desc,
		PaperClaim:  p.claim,
		Net:         pr.Net,
		Observables: obsv,
	}
}

// PopulationMixed contends three CCA cohorts at one bottleneck.
func PopulationMixed(o Opts) *Result {
	return runPopulationParams(popParams{
		id:   "P6.1",
		desc: "24-flow mixed population (vegas/reno/copa) on one 48 Mbit/s bottleneck",
		claim: "extension beyond the paper: Theorem 1's pairwise starvation, " +
			"measured as a population starved-fraction across CCA cohorts",
		flows:      "vegas*8:stagger=50ms;reno*8:stagger=50ms;copa*8:stagger=50ms",
		topo:       "single",
		rateMbps:   48,
		bufferPkts: 128,
		dur:        12 * time.Second,
	}, o)
}

// PopulationRTT contends one CCA across heterogeneous-RTT cohorts.
func PopulationRTT(o Opts) *Result {
	return runPopulationParams(popParams{
		id:   "P6.2",
		desc: "24 reno flows in 20/80/160 ms RTT cohorts on one 48 Mbit/s bottleneck",
		claim: "extension beyond the paper: RTT-unfair loss-based control; " +
			"long-RTT cohorts hold shares far below fair and starve first",
		flows: "reno*8:rm=20ms,cohort=rtt20,stagger=50ms;" +
			"reno*8:rm=80ms,cohort=rtt80,stagger=50ms;" +
			"reno*8:rm=160ms,cohort=rtt160,stagger=50ms",
		topo:       "single",
		rateMbps:   48,
		bufferPkts: 128,
		dur:        12 * time.Second,
	}, o)
}

// PopulationParkingLot runs long flows over a 3-hop chain against one-hop
// cross traffic.
func PopulationParkingLot(o Opts) *Result {
	return runPopulationParams(popParams{
		id:   "P6.3",
		desc: "parking-lot: 6 long vegas flows over 3 hops vs 6 one-hop reno cross flows",
		claim: "extension beyond the paper: multi-bottleneck chain; long flows " +
			"pay every hop's queue and lose to single-hop cross traffic",
		flows: "vegas*6:cohort=long,stagger=50ms;" +
			"reno*2:path=0,cohort=cross,stagger=50ms;" +
			"reno*2:path=1,cohort=cross,stagger=50ms;" +
			"reno*2:path=2,cohort=cross,stagger=50ms",
		topo:       "parkinglot:3",
		rateMbps:   24,
		bufferPkts: 64,
		dur:        12 * time.Second,
	}, o)
}

// PopulationFanIn funnels two CCA cohorts through a shared uplink.
func PopulationFanIn(o Opts) *Result {
	return runPopulationParams(popParams{
		id:   "P6.4",
		desc: "fan-in: 16 flows (vegas/reno) over 4 access links into one 32 Mbit/s uplink",
		claim: "extension beyond the paper: contention concentrates at the shared " +
			"uplink; with plain drop-tail buffers the fan-in stays near-fair — " +
			"topology alone does not reproduce the paper's jitter-driven starvation",
		flows:      "vegas*8:stagger=50ms;reno*8:stagger=50ms",
		topo:       "fanin:4",
		rateMbps:   32,
		bufferPkts: 96,
		dur:        12 * time.Second,
	}, o)
}

// PopulationMixed500 is the nightly large-N smoke: 500 flows across four
// CCA cohorts. It exists to exercise population scale (event pool, obs
// aggregation, population statistics) end to end, not to publish numbers.
func PopulationMixed500(o Opts) *Result {
	return runPopulationParams(popParams{
		id:   "P6.5",
		desc: "500-flow mixed population (vegas/reno/copa/bbr) on one 250 Mbit/s bottleneck",
		claim: "extension beyond the paper: population-scale smoke; starved " +
			"fraction and share quantiles at N=500",
		flows: "vegas*125:stagger=8ms;reno*125:stagger=8ms;" +
			"copa*125:stagger=8ms;bbr*125:stagger=8ms",
		topo:       "single",
		rateMbps:   250,
		bufferPkts: 512,
		dur:        8 * time.Second,
	}, o)
}
