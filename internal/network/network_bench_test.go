package network

import (
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/units"
)

// emulatedSecond runs the BenchmarkEmulatedSecond workload — two Vegas
// flows, Rm 50 ms, one emulated second — over a bottleneck of the given
// rate.
func emulatedSecond(rate units.Rate) (*Network, *Result) {
	n := New(
		Config{Links: SingleBottleneck(rate, 0), Seed: 1},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
	)
	return n, n.Run(time.Second)
}

// BenchmarkEmulatedSecond measures end-to-end emulator speed: how much
// wall-clock time one simulated second of a loaded two-flow path costs.
// The figure-regeneration harness simulates tens of minutes of virtual
// time; this bench is its unit cost.
func BenchmarkEmulatedSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, res := emulatedSecond(units.Mbps(100))
		b.ReportMetric(float64(res.Delivered), "pkts/simsec")
	}
}

// BenchmarkEmulatedSecond1G is the same workload at 1 Gbit/s, where the
// bandwidth-delay product is ten times larger. events/simsec and
// peak_heap are deterministic work counts: benchcheck gates both exactly,
// and peak_heap must not grow with the link rate (every per-packet stage
// is a delay line with one heap record).
func BenchmarkEmulatedSecond1G(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, res := emulatedSecond(units.Gbps(1))
		st := n.Sim.Stats()
		b.ReportMetric(float64(res.Delivered), "pkts/simsec")
		b.ReportMetric(float64(st.Fired), "events/simsec")
		b.ReportMetric(float64(st.HeapMax), "peak_heap")
	}
}

// TestHeapDepthIndependentOfRate pins the point of the delay lines: the
// event heap holds one record per busy element, not one per in-flight
// packet, so its peak depth is the same at 100 Mbit/s and 1 Gbit/s even
// though the number of pending events grows with the bandwidth-delay
// product.
func TestHeapDepthIndependentOfRate(t *testing.T) {
	n100, _ := emulatedSecond(units.Mbps(100))
	n1g, _ := emulatedSecond(units.Gbps(1))
	h100, h1g := n100.Sim.Stats().HeapMax, n1g.Sim.Stats().HeapMax
	if h1g != h100 || h1g > 32 {
		t.Errorf("peak heap: %d at 1 Gbit/s, %d at 100 Mbit/s; want equal and <= 32", h1g, h100)
	}
	t.Logf("peak heap %d (100 Mbit/s) %d (1 Gbit/s)", h100, h1g)
}

// BenchmarkEmulatedSecondTelemetry is the same workload with the flight
// recorder on: windowed sampler, episode detector, phase machine, and the
// RTT/fault emissions the recorder unlocks. benchcheck pins its ns/op
// within tolerance of its own baseline and its pkts/simsec exactly equal
// to BenchmarkEmulatedSecond's — the realization must not move.
func BenchmarkEmulatedSecondTelemetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(
			Config{Links: SingleBottleneck(units.Mbps(100), 0), Seed: 1, Telemetry: &TelemetryConfig{}},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		)
		res := n.Run(time.Second)
		pkts := float64(res.Delivered)
		b.ReportMetric(pkts, "pkts/simsec")
	}
}

// BenchmarkSweepThroughput measures the sweep hot path: the
// BenchmarkEmulatedSecond workload (two Vegas flows, 100 Mbit/s, one
// emulated second) run back-to-back through one recycled Session with
// seeds cycling over a 100-seed sweep, exactly as the sweep drivers do.
// allocs/op is the per-run allocation cost with arena recycling on —
// compare BenchmarkEmulatedSecond, which pays full network construction
// every run. The flowsec/sec metric is emulated flow-seconds per wall
// second (per core: the loop is single-threaded).
func BenchmarkSweepThroughput(b *testing.B) {
	s := NewSession()
	run := func(seed int64) *Result {
		res, err := s.Run(
			Config{Links: SingleBottleneck(units.Mbps(100), 0), Seed: seed},
			time.Second,
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
			FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond},
		)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	// Warm pass: build the cached network once so the timed loop measures
	// recycled runs, which is what every sweep iteration after the first is.
	run(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(int64(1 + i%100))
	}
	b.StopTimer()
	b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "flowsec/sec")
}

// BenchmarkPacketRate measures raw packet-forwarding throughput of the
// assembled path (sender → queue → propagation → jitter → receiver → ack).
func BenchmarkPacketRate(b *testing.B) {
	n := New(
		Config{Links: SingleBottleneck(units.Gbps(1), 0), Seed: 1},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond},
	)
	for _, f := range n.Flows {
		n.Sim.At(f.Spec.StartAt, f.Sender.Start)
	}
	// Warm to steady state.
	n.Sim.Run(2 * time.Second)
	start := n.Links[0].Delivered
	b.ResetTimer()
	b.ReportAllocs()
	target := 2*time.Second + time.Duration(b.N)*time.Millisecond
	n.Sim.Run(target)
	b.StopTimer()
	if n.Links[0].Delivered == start && b.N > 1000 {
		b.Fatal("no packets flowed")
	}
}
