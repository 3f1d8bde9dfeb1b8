package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"starvation/internal/network"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupSeconds summarizes repeated set-up times: the mean of the middle
// half, in seconds. It drops the slow first set-ups of a cold process and
// the ones a garbage collection or the host interrupted, and averages
// more samples than the median does.
func setupSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// setupTimer times a workload's repeated set-ups. A quarter of them run
// before the measured phase (before); during it, step keeps their number
// in proportion to the measured time used so far; finish runs the rest.
// The host's speed drifts from second to second, so set-ups spread over
// the run sample it over as long a time as the other metrics do, not
// only over the run's first fraction of a second.
type setupTimer struct {
	run   func() error
	times []time.Duration
}

// upTo runs set-ups until n have been timed.
func (t *setupTimer) upTo(n int) error {
	for len(t.times) < n {
		start := time.Now()
		err := t.run()
		t.times = append(t.times, time.Since(start))
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *setupTimer) before() error { return t.upTo(setupRepeats / 4) }

// step is called between units of measured work, given when the measured
// phase started and how long it lasts.
func (t *setupTimer) step(start time.Time, measure time.Duration) error {
	frac := min(1, float64(time.Since(start))/float64(measure))
	return t.upTo(setupRepeats/4 + int(frac*float64(setupRepeats-setupRepeats/4)))
}

// finish runs the remaining set-ups and returns setup_s.
func (t *setupTimer) finish() (float64, error) {
	err := t.upTo(setupRepeats)
	return setupSeconds(t.times), err
}

// setPassMetrics fills the end-to-end metrics of a closed-loop workload
// whose unit of work is a pass of fixed work, given the pass times in
// seconds, the flow-seconds and jobs the passes emulated in all, and the
// clock that sampled the host between the passes. Every time is
// host-normalized. wall_s is the mean pass, not the median, because the
// clock's mean slice is set against the passes' total time.
// Such a workload has one time sample per pass, far fewer than the 200 a
// 95th percentile with 10 samples beyond it needs, so it has no tail:
// batch_p50_ms and batch_p95_ms both report the mean pass, and
// heavy_jobs_per_s is the flow-second throughput in jobs. All three are
// aliases of wall_s and flowsec_per_s, not independent measurements.
func setPassMetrics(o *outcome, clock *hostClock, walls []float64, flowSec, jobs float64) {
	var raw float64
	for _, w := range walls {
		raw += w
	}
	slow := clock.slowdown()
	norm := raw / slow
	m := o.metrics
	m["wall_s"] = norm / float64(len(walls))
	m["flowsec_per_s"] = flowSec / norm
	m["batch_p50_ms"] = 1000 * m["wall_s"]
	m["batch_p95_ms"] = 1000 * m["wall_s"]
	m["heavy_jobs_per_s"] = jobs / norm
	o.note("host wall time: %d passes took %.3f s (mean %.4f s, %.1f flow-seconds/s); %d reference slices "+
		"between them took %.2f ms on average, a slowdown of %.3f against the reference host",
		len(walls), raw, raw/float64(len(walls)), flowSec/raw, len(clock.slices), 1000*slow*refSlice.Seconds(), slow)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// counts are the deterministic work counts of one or more network runs.
type counts struct {
	scheduled, fired, delivered, dropped, queueMaxBytes, acks, retx int64
	// queueMax and queueLast come from the flight recorder (0 without it).
	queueMax, queueLast                 int64
	windowsClosed, episodes, violations int64
}

// add folds one run's result into c.
func (c *counts) add(r *network.Result) {
	g := r.Obs.Global
	c.scheduled += int64(g.SimEventsScheduled)
	c.fired += int64(g.SimEventsFired)
	c.delivered += g.PacketsDequeued
	c.dropped += g.PacketsDropped
	c.queueMaxBytes = max(c.queueMaxBytes, g.MaxQueueBytes)
	for _, f := range r.Obs.Flows {
		c.acks += f.AcksReceived
		c.retx += f.Retransmits
	}
	if t := r.Telemetry; t != nil {
		c.queueMax = max(c.queueMax, int64(t.Self.SimQueueMax))
		c.queueLast += int64(t.Self.SimQueueLast)
		for _, f := range t.Flows {
			c.windowsClosed += f.WindowsClosed
		}
		c.episodes += int64(len(t.Episodes))
	}
	if r.Guard != nil {
		c.violations += int64(len(r.Guard.Violations))
	}
}

// plus folds another set of counts into c.
func (c *counts) plus(d counts) {
	c.scheduled += d.scheduled
	c.fired += d.fired
	c.delivered += d.delivered
	c.dropped += d.dropped
	c.queueMaxBytes = max(c.queueMaxBytes, d.queueMaxBytes)
	c.acks += d.acks
	c.retx += d.retx
	c.queueMax = max(c.queueMax, d.queueMax)
	c.queueLast += d.queueLast
	c.windowsClosed += d.windowsClosed
	c.episodes += d.episodes
	c.violations += d.violations
}

// cancelled is scheduled − fired − live at end, with "live at end" read
// from the recorder's last queue-depth sample.
func (c *counts) cancelled() int64 { return c.scheduled - c.fired - c.queueLast }

// identity returns the counts that must repeat exactly for fixed inputs.
// Recorder counts are included only when the recorder ran.
func (c *counts) identity(telemetry bool) map[string]int64 {
	m := map[string]int64{
		"sim.events_scheduled":  c.scheduled,
		"sim.events_fired":      c.fired,
		"netem.pkts_delivered":  c.delivered,
		"netem.pkts_dropped":    c.dropped,
		"netem.queue_max_bytes": c.queueMaxBytes,
		"endpoint.acks":         c.acks,
		"endpoint.retransmits":  c.retx,
	}
	if telemetry {
		m["sim.events_cancelled"] = c.cancelled()
		m["obs.windows_closed"] = c.windowsClosed
		m["obs.episodes"] = c.episodes
	}
	return m
}

// layerMetrics copies the counts into the per-layer metric names.
func (c *counts) layerMetrics(m map[string]float64) {
	m["sim.events_fired"] = float64(c.fired)
	m["sim.events_cancelled"] = float64(c.cancelled())
	m["sim.queue_max"] = float64(c.queueMax)
	m["netem.pkts_delivered"] = float64(c.delivered)
	m["netem.pkts_dropped"] = float64(c.dropped)
	m["netem.queue_max_bytes"] = float64(c.queueMaxBytes)
	m["endpoint.acks"] = float64(c.acks)
	m["endpoint.retransmits"] = float64(c.retx)
	m["obs.windows_closed"] = float64(c.windowsClosed)
	m["obs.episodes"] = float64(c.episodes)
	m["guard.violations"] = float64(c.violations)
}

// hasher accumulates a realization hash over rendered results.
type hasher struct{ h [32]byte }

func (h *hasher) add(parts ...any) {
	s := sha256.New()
	s.Write(h.h[:])
	for _, p := range parts {
		fmt.Fprint(s, p, "\x00")
	}
	copy(h.h[:], s.Sum(nil))
}

// prefix returns the hash as a ledger entry (the first 15 hex digits, a
// value a JSON number holds exactly).
func (h *hasher) prefix() int64 {
	v, _ := strconv.ParseInt(hex.EncodeToString(h.h[:])[:15], 16, 64)
	return v
}

// allocTolerance is how far an allocation count may drift between runs of
// the same code (the garbage collector and lazily grown buffers make it
// vary; every other count must repeat exactly).
const allocTolerance = 0.10

// codeID identifies the code that produced a run's counts: the first 16
// hex digits of the SHA-256 of the running binary. Any change to the
// program or the benchmark changes it.
func codeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkLedger compares the run's deterministic counts with those an
// earlier run of the same code, workload and seed recorded under dir, and
// records any count not seen before. The ledger is keyed by codeID, so a
// change that legitimately moves the counts starts a ledger of its own.
// Counts present in only one of the two runs (the traced run adds
// recorder counts) are not compared.
func checkLedger(o *outcome, dir, workload string, seed int64) {
	if len(o.identity) == 0 {
		return
	}
	id, err := codeID()
	if err != nil {
		o.note("counts ledger skipped: cannot hash the running binary: %v", err)
		return
	}
	dir = filepath.Join(dir, id)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	known := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &known); err != nil {
			o.check(false, "counts ledger %s unreadable: %v", path, err)
			return
		}
	}
	changed := false
	for k, v := range o.identity {
		old, ok := known[k]
		switch {
		case !ok:
			known[k] = v
			changed = true
		case strings.HasPrefix(k, "alloc."):
			o.check(math.Abs(float64(v-old)) <= allocTolerance*float64(old),
				"%s = %d, earlier run of the same code recorded %d (beyond %.0f%%)", k, v, old, 100*allocTolerance)
		default:
			o.check(v == old, "%s = %d, earlier run of the same code and inputs recorded %d", k, v, old)
		}
	}
	if !changed {
		return
	}
	data, err := json.MarshalIndent(known, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	o.check(err == nil, "writing counts ledger: %v", err)
}
