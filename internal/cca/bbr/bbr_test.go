package bbr

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"starvation/internal/cca"
)

func newTestBBR() *BBR {
	return New(Config{MSS: 1500, Rng: rand.New(rand.NewSource(1))})
}

// feedSteady delivers acks at a steady rate (bytes/s) with the given RTT
// for the given span, returning the end time.
func feedSteady(b *BBR, start time.Duration, rateBps float64, rtt, span time.Duration) time.Duration {
	interval := time.Duration(1500 / rateBps * float64(time.Second))
	now := start
	for now < start+span {
		now += interval
		b.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: 1500,
			DeliveredBytes: 1500, Packets: 1, InFlight: int(rateBps * rtt.Seconds())})
	}
	return now
}

func TestStartupState(t *testing.T) {
	b := newTestBBR()
	if b.State() != "startup" {
		t.Errorf("initial state = %s, want startup", b.State())
	}
	if b.PacingRate() != 0 {
		t.Error("pacing before any bandwidth sample should be unlimited (ACK-clocked)")
	}
}

func TestBandwidthEstimate(t *testing.T) {
	b := newTestBBR()
	const rate = 1.5e6 // bytes/s = 12 Mbit/s
	feedSteady(b, 0, rate, 40*time.Millisecond, time.Second)
	got := b.BtlBw().BytesPerSec()
	if got < rate*0.9 || got > rate*1.2 {
		t.Errorf("BtlBw = %.0f bytes/s, want ~%.0f", got, rate)
	}
}

func TestRTpropIsWindowedMin(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 50*time.Millisecond, 200*time.Millisecond)
	feedSteady(b, 200*time.Millisecond, 1.5e6, 40*time.Millisecond, 200*time.Millisecond)
	feedSteady(b, 400*time.Millisecond, 1.5e6, 60*time.Millisecond, 200*time.Millisecond)
	if got := b.RTprop(); got != 40*time.Millisecond {
		t.Errorf("RTprop = %v, want windowed min 40ms", got)
	}
}

func TestExitsStartupWhenBwPlateaus(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	if b.State() == "startup" {
		t.Errorf("still in startup after 50 RTTs of flat bandwidth")
	}
}

func TestReachesProbeBWAndCycles(t *testing.T) {
	b := newTestBBR()
	now := feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	// Drain inflight below the BDP so Drain exits.
	b.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond, AckedBytes: 1500,
		DeliveredBytes: 1500, InFlight: 0})
	feedSteady(b, now, 1.5e6, 40*time.Millisecond, time.Second)
	if b.State() != "probebw" {
		t.Fatalf("state = %s, want probebw", b.State())
	}
	// Over a full gain cycle the pacing gain must visit 1.25 and 0.75.
	seen := map[float64]bool{}
	end := b.lastAckTime + 8*10*40*time.Millisecond
	feedWatch := func(now time.Duration) {
		seen[b.pacingGain] = true
	}
	nw := b.lastAckTime
	for nw < end {
		nw += time.Millisecond
		b.OnAck(cca.AckSignal{Now: nw, RTT: 40 * time.Millisecond, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
		feedWatch(nw)
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Errorf("gain cycle incomplete: %v", seen)
	}
}

func TestCwndFormula(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	bw := b.btlBw.Get(0)
	want := 2*bw*0.040 + 4*1500
	got := float64(b.Window())
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("Window = %v, want ~%v (2·BDP + α)", got, want)
	}
}

func TestProbeRTTEntryOnStaleEstimate(t *testing.T) {
	b := newTestBBR()
	// Feed a steadily increasing RTT: the min filter's sample goes stale
	// after RTpropWindow (10 s) without refresh.
	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	entered := false
	for now < 12*time.Second {
		now += 10 * time.Millisecond
		rtt += 2 * time.Microsecond
		b.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
		if b.State() == "probertt" {
			entered = true
			break
		}
	}
	if !entered {
		t.Fatal("never entered ProbeRTT with a stale estimate")
	}
	if got := b.Window(); got != 4*1500 {
		t.Errorf("ProbeRTT window = %d, want 4 MSS", got)
	}
}

func TestProbeRTTDisabled(t *testing.T) {
	b := New(Config{MSS: 1500, Rng: rand.New(rand.NewSource(1)), DisableProbeRTT: true})
	now := time.Duration(0)
	for now < 15*time.Second {
		now += 10 * time.Millisecond
		b.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
	}
	if b.State() == "probertt" {
		t.Error("ProbeRTT entered despite DisableProbeRTT")
	}
}

func TestRTpropHintPins(t *testing.T) {
	b := New(Config{MSS: 1500, Rng: rand.New(rand.NewSource(1)), RTpropHint: 33 * time.Millisecond})
	feedSteady(b, 0, 1.5e6, 50*time.Millisecond, time.Second)
	if got := b.RTprop(); got != 33*time.Millisecond {
		t.Errorf("RTprop = %v, want pinned 33ms", got)
	}
}

func TestMaxFilterOverestimatesUnderJitter(t *testing.T) {
	// The §5.2 mechanism: bursty ACK arrival makes some RTT-long intervals
	// carry more than the average rate, and the max filter latches that —
	// the entry ticket to cwnd-limited mode.
	bSmooth := newTestBBR()
	feedSteady(bSmooth, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)

	bJitter := newTestBBR()
	rng := rand.New(rand.NewSource(7))
	now := time.Duration(0)
	for now < 2*time.Second {
		// Same average rate, delivered in bunches.
		n := rng.Intn(8) + 1
		now += time.Duration(n) * time.Millisecond
		bJitter.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond,
			AckedBytes: n * 1500, DeliveredBytes: n * 1500, InFlight: 60000})
	}
	if bJitter.btlBw.Get(0) <= bSmooth.btlBw.Get(0) {
		t.Errorf("jittered bw estimate %.0f not above smooth %.0f",
			bJitter.btlBw.Get(0), bSmooth.btlBw.Get(0))
	}
}

func TestRegistry(t *testing.T) {
	f := cca.Lookup("bbr")
	if f == nil {
		t.Fatal("bbr not registered")
	}
	if alg := f(1500, rand.New(rand.NewSource(1))); alg.Name() != "bbr" {
		t.Error("registry returned wrong algorithm")
	}
}

func TestIgnoresLoss(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, time.Second)
	w := b.Window()
	p := b.PacingRate()
	b.OnLoss(cca.LossSignal{Now: 2 * time.Second, Bytes: 1500, NewEvent: true})
	if b.Window() != w || b.PacingRate() != p {
		t.Error("the §5.2 BBR model must not react to loss")
	}
}

// ackAt100M returns the i-th ACK of a 100 Mbit/s stream (one 1500-byte
// segment every 120 µs) with an RTT that wanders between 40 and 60 ms, so
// both the delivery-rate lookup and the RTprop filter keep working.
func ackAt100M(i int, rng *rand.Rand) cca.AckSignal {
	const interval = 120 * time.Microsecond
	rtt := 40*time.Millisecond + time.Duration(rng.Intn(20000))*time.Microsecond
	return cca.AckSignal{Now: time.Duration(i+1) * interval, RTT: rtt, AckedBytes: 1500,
		DeliveredBytes: 1500, Packets: 1, InFlight: int(12.5e6 * rtt.Seconds())}
}

// TestHistoryPruneMatchesNaive pins the amortized history pruning: over
// 40 s of 100 Mbit/s ACKs — long enough past the 15 s history horizon for
// the dead prefix to outgrow the live part and be compacted — every output
// equals a reference that discards the dead prefix on every ACK (the
// history the old per-ACK copy kept), and the history's capacity stays
// proportional to its live samples.
func TestHistoryPruneMatchesNaive(t *testing.T) {
	b, ref := newTestBBR(), newTestBBR()
	rng := rand.New(rand.NewSource(7))
	n := int(40 * time.Second / (120 * time.Microsecond))
	compactions := 0
	for i := 0; i < n; i++ {
		s := ackAt100M(i, rng)
		head := b.histHead
		b.OnAck(s)
		if b.histHead < head {
			compactions++
		}
		ref.OnAck(s)
		ref.history, ref.histHead = ref.history[ref.histHead:], 0
		if live := b.history[b.histHead:]; len(live) != len(ref.history) ||
			(b.histHead < head && !slices.Equal(live, ref.history)) {
			t.Fatalf("ack %d at %v: live history (%d samples) diverges from naive (%d)", i, s.Now, len(live), len(ref.history))
		}
		if b.Window() != ref.Window() || b.PacingRate() != ref.PacingRate() || b.BtlBw() != ref.BtlBw() {
			t.Fatalf("ack %d at %v: window %d/%d pacing %v/%v btlbw %v/%v (amortized/naive)", i, s.Now,
				b.Window(), ref.Window(), b.PacingRate(), ref.PacingRate(), b.BtlBw(), ref.BtlBw())
		}
	}
	live := len(b.history) - b.histHead
	if compactions == 0 {
		t.Fatal("run never compacted; it does not reach past the history horizon")
	}
	if c := cap(b.history); c > 4*live {
		t.Errorf("cap(history) = %d for %d live samples; want O(live)", c, live)
	}
}

// BenchmarkOnAckPastHorizon measures BBR's per-ACK cost once a run has
// passed the 15 s history horizon, where every ACK prunes a sample: 25 s
// of 100 Mbit/s ACKs are fed untimed, then each op is one more ACK.
func BenchmarkOnAckPastHorizon(b *testing.B) {
	bb := newTestBBR()
	rng := rand.New(rand.NewSource(7))
	warm := int(25 * time.Second / (120 * time.Microsecond))
	for i := 0; i < warm; i++ {
		bb.OnAck(ackAt100M(i, rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.OnAck(ackAt100M(warm+i, rng))
	}
}
