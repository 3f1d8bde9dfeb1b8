package network

import (
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/obs"
	"starvation/internal/units"
)

// BenchmarkNoopProbe bounds the cost of the observability layer on the
// BenchmarkEmulatedSecond workload (two Vegas flows, one emulated second):
//
//	disabled — Probe nil, the default for every existing scenario; any
//	           regression versus the seed's BenchmarkEmulatedSecond is
//	           pure instrumentation-plumbing overhead (budget: ≤ 5%).
//	noop     — an enabled probe that discards events: the dispatch cost
//	           of the event stream itself.
//	registry — events folded into the counters registry, the cheapest
//	           useful consumer.
func BenchmarkNoopProbe(b *testing.B) {
	run := func(b *testing.B, probe obs.Probe) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := New(
				Config{Links: SingleBottleneck(units.Mbps(100), 0), Seed: 1, Probe: probe},
				FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
				FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			)
			res := n.Run(time.Second)
			b.ReportMetric(float64(res.Delivered), "pkts/simsec")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("noop", func(b *testing.B) { run(b, obs.Nop{}) })
	b.Run("registry", func(b *testing.B) { run(b, obs.NewRegistry()) })
}
