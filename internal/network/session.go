package network

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/guard"
	"starvation/internal/netem/jitter"
	"starvation/internal/obs"
)

// Session is a reusable run context: it owns fully wired networks — event
// arenas, flow/endpoint state, netem elements, trace buffers — and recycles
// them across runs, so a sweep (thousands of short realizations) pays
// construction once instead of once per run. Buffers are grow-only, sized
// by the largest configuration the session has seen.
//
// Networks are cached by *shape*: the properties baked into the wiring at
// construction time (link count, each flow's resolved path, and which
// impairment elements sit on its forward chain). A run whose shape matches
// a cached network resets that network in place; anything else — rates,
// seeds, buffer sizes, CCA instances, jitter policies, ACK policies, ECN,
// markers, rate schedules, guard and telemetry options, durations — is a
// plain parameter, applied fresh on every run. Results are always detached:
// every trace series is cloned out of the recycled buffers, so a Result
// outlives the session's next run untouched.
//
// A Session is single-owner, like the Simulator inside it: one goroutine
// runs it at a time. Sweeps give each worker its own session (see
// SessionPool); sharing one across goroutines corrupts the arenas.
type Session struct {
	nets map[string]*Network
	key  []byte // scratch for shape-key assembly (no per-run alloc)
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{nets: make(map[string]*Network)}
}

// maxCachedShapes bounds the session's network cache. A sweep touches a
// handful of shapes; if a pathological caller cycles through more, the
// cache is dropped wholesale and rebuilt rather than growing without
// bound.
const maxCachedShapes = 32

// Run executes one realization through the session, with the steady-state
// window defaulting to the second half of the run — the session analogue
// of New(cfg, specs...).Run(d), including NewChecked's validation.
func (s *Session) Run(cfg Config, d time.Duration, specs ...FlowSpec) (*Result, error) {
	return s.RunWindow(cfg, d, d/2, d, specs...)
}

// RunWindow executes one realization for duration d with steady-state
// statistics over [from, to), recycling a cached network when the
// configuration's shape matches one the session has already built. The
// returned Result is fully detached from the session's buffers.
func (s *Session) RunWindow(cfg Config, d, from, to time.Duration, specs ...FlowSpec) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	nLinks := len(cfg.linksOf())
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("network: flow %d %w", i, err)
		}
		if err := validatePath(spec.Path, nLinks); err != nil {
			return nil, fmt.Errorf("network: flow %d: %w", i, err)
		}
	}
	s.key = appendShapeKey(s.key[:0], nLinks, specs)
	n := s.nets[string(s.key)]
	if n == nil {
		if len(s.nets) >= maxCachedShapes {
			s.nets = make(map[string]*Network)
		}
		n = newNetwork(cfg, specs...)
		s.nets[string(s.key)] = n
	} else {
		n.reset(cfg, specs)
	}
	res := n.RunWindow(d, from, to)
	detachTraces(res)
	return res, nil
}

// appendShapeKey encodes the construction-time shape of a configuration:
// the link count, then per flow one flag byte for the impairment elements
// on its forward chain (loss gate, GE gate, reorderer, duplicator) and its
// resolved path. Everything else about a config is resettable and stays
// out of the key.
func appendShapeKey(key []byte, nLinks int, specs []FlowSpec) []byte {
	key = binary.AppendUvarint(key, uint64(nLinks))
	for _, spec := range specs {
		var flags byte
		if spec.LossProb > 0 {
			flags |= 1
		}
		if fs := spec.Faults; fs != nil {
			if fs.GE != nil {
				flags |= 2
			}
			if fs.Reorder != nil {
				flags |= 4
			}
			if fs.Duplicate != nil {
				flags |= 8
			}
		}
		key = append(key, flags)
		if len(spec.Path) > 0 {
			key = binary.AppendUvarint(key, uint64(len(spec.Path)))
			for _, j := range spec.Path {
				key = binary.AppendUvarint(key, uint64(j))
			}
		} else {
			// Nil path resolves to every link in index order (pathOf).
			key = binary.AppendUvarint(key, uint64(nLinks))
			for j := 0; j < nLinks; j++ {
				key = binary.AppendUvarint(key, uint64(j))
			}
		}
	}
	return key
}

// detachTraces clones every trace series of a result out of the network's
// recycled buffers. collect() hands out pointers into network-owned series;
// without this, the session's next run would clobber the previous result.
func detachTraces(res *Result) {
	res.QueueTrace = res.QueueTrace.Clone()
	for i := range res.Links {
		if res.Links[i].Queue != nil {
			res.Links[i].Queue = res.Links[i].Queue.Clone()
		}
	}
	for i := range res.Flows {
		fr := &res.Flows[i]
		fr.RTT = fr.RTT.Clone()
		fr.Rate = fr.Rate.Clone()
		fr.Cwnd = fr.Cwnd.Clone()
	}
}

// reset rewires the network in place for a new configuration of the same
// shape, mirroring newNetwork stage for stage: simulator first (which
// invalidates every outstanding timer handle — element resets zero their
// handles, never cancel them), then the probe chain, links, and flows. A
// reset network is bit-identical in behaviour to a freshly constructed
// one; the golden fresh-vs-reused parity test pins that mechanically.
func (n *Network) reset(cfg Config, specs []FlowSpec) {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 100 * time.Millisecond
	}
	n.Sim.Reset(cfg.Seed)
	if cfg.Ctx != nil {
		n.Sim.SetContext(cfg.Ctx)
	}
	n.report = guard.Report{}
	if cfg.Guard != nil {
		if n.monitor == nil {
			n.monitor = guard.NewMonitor()
		} else {
			n.monitor.Reset()
		}
		cfg.Probe = obs.Multi(cfg.Probe, n.monitor)
	} else {
		n.monitor = nil
	}
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("flow%d", i)
		}
	}
	n.telemetry = nil
	if cfg.Telemetry != nil {
		// Rebuilt fresh each run: the recorder is observation-only and its
		// parameters (windows, thresholds, flow labels) may change freely
		// between runs, so recycling its rings buys nothing but hazards.
		var fair float64
		if r := cfg.linksOf()[cfg.Bottleneck].Rate; r > 0 && len(specs) > 0 {
			fair = float64(r) / float64(len(specs))
		}
		n.telemetry = newTelemetryRecorder(cfg.Telemetry, cfg.SampleEvery, fair, cfg.Probe, specs)
		cfg.Probe = obs.Multi(cfg.Probe, n.telemetry)
	}
	n.cfg = cfg

	n.linkSpecs = cfg.linksOf()
	for j := range n.linkSpecs {
		ls := &n.linkSpecs[j]
		if ls.Name == "" {
			ls.Name = fmt.Sprintf("link%d", j)
		}
		link := n.Links[j]
		link.Reset(ls.Rate, ls.BufferBytes)
		if ls.ECNThresholdBytes > 0 {
			link.SetECNThreshold(ls.ECNThresholdBytes)
		}
		if ls.Marker != nil {
			link.SetMarker(ls.Marker)
		}
		link.SetProbe(cfg.Probe)
		n.ensureHop(j) // hop delays are resettable, so one may appear now
	}
	n.Link = n.Links[cfg.Bottleneck]
	for j := range n.linkSpecs {
		if sched := n.linkSpecs[j].RateSchedule; sched != nil {
			sched.Apply(n.Sim, n.Links[j])
		}
	}
	n.QueueTrace.Reset()
	for j := range n.LinkQueues {
		n.LinkQueues[j].Reset()
		n.LinkQueues[j].Name = n.linkSpecs[j].Name + "_queue_bytes"
	}

	for i, spec := range specs {
		if spec.MSS <= 0 {
			spec.MSS = endpoint.DefaultMSS
		}
		if spec.FwdJitter == nil {
			spec.FwdJitter = jitter.None{}
		}
		if spec.AckJitter == nil {
			spec.AckJitter = jitter.None{}
		}
		f := n.Flows[i]
		f.Spec = spec
		// f.path and n.nextHop are shape state: the session key pins them
		// equal to this config's resolved paths, so they are kept as-is.
		f.RTTTrace.Reset()
		f.RTTTrace.Name = spec.Name + "_rtt_s"
		f.RateTrace.Reset()
		f.RateTrace.Name = spec.Name + "_rate_bps"
		f.CwndTrace.Reset()
		f.CwndTrace.Name = spec.Name + "_cwnd_bytes"

		f.AckBox.Reset(spec.AckJitter)
		f.Receiver.Reset(spec.Ack)
		f.Receiver.Probe = cfg.Probe
		f.FwdBox.Reset(spec.FwdJitter)
		if f.gate != nil {
			f.gate.Reset(spec.LossProb)
			f.gate.Rng.Seed(derivedSeed(cfg.Seed, i, saltGate))
			f.gate.SetProbe(n.Sim, cfg.Probe)
		}
		if fs := spec.Faults; fs != nil {
			if f.ge != nil {
				f.ge.Reset(*fs.GE, derivedSeed(cfg.Seed, i, saltGE))
				f.ge.SetProbe(n.Sim, cfg.Probe)
			}
			if f.reorder != nil {
				f.reorder.Reset(*fs.Reorder, derivedSeed(cfg.Seed, i, saltReorder))
				f.reorder.SetProbe(cfg.Probe)
			}
			if f.dup != nil {
				f.dup.Reset(*fs.Duplicate, derivedSeed(cfg.Seed, i, saltDup))
				f.dup.SetProbe(n.Sim, cfg.Probe)
			}
		}
		// The sender's trace hook closure was built at construction and
		// captures the flow (whose trace buffers are reset in place), so it
		// survives reuse; Reset clears the field like a fresh sender would,
		// hence the save/restore.
		hook := f.Sender.AckTraceHook
		f.Sender.Reset(spec.Alg, spec.MSS)
		f.Sender.Probe = cfg.Probe
		f.Sender.AckTraceHook = hook
		f.rateSamples = 0
		f.lastSampledAcked = 0
		f.hopTransit = 0
		if n.monitor != nil {
			n.monitor.Track(f.ID, cfg.Guard.StallAfter(spec.Rm), spec.StartAt)
		}
	}
}

// SessionPool hands out single-owner sessions to concurrent workers: Get a
// session, run any number of realizations through it, Put it back. Unlike
// sync.Pool it never discards warm sessions under GC pressure and is fully
// deterministic, which keeps sweep results reproducible run to run.
type SessionPool struct {
	mu   sync.Mutex
	free []*Session
}

// NewSessionPool returns an empty pool.
func NewSessionPool() *SessionPool { return &SessionPool{} }

// Get returns an idle session, creating one if none is free. The caller
// owns it exclusively until Put.
func (p *SessionPool) Get() *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return NewSession()
}

// Put returns a session to the pool. The caller must not use it afterward.
func (p *SessionPool) Put(s *Session) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
