package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starvation/internal/cca"
)

// span is one timed call into a layer. Spans of one realization or batch
// share Trace; Parent links a call to the span that caused it (0 = root).
// Rolled-up spans (Count > 0) aggregate many short calls of one kind —
// CCA callbacks fire per ACK, far too often to keep one record each — and
// carry only their summed duration in SelfNs.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// do runs fn inside a span and returns fn's wall time. fn receives the
// span's id for its children (0 when untraced).
func (t *tracer) do(trace, name string, parent int64, fn func(id int64)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	id := t.ids.Add(1)
	start := time.Now()
	fn(id)
	end := time.Now()
	t.add(span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	return end.Sub(start)
}

// rollup records an aggregate of count calls totalling d under parent.
func (t *tracer) rollup(trace, name string, parent, count int64, d time.Duration) {
	if t == nil || count == 0 {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name,
		SelfNs: d.Nanoseconds(), Count: count})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes fills SelfNs of every timed span: its duration minus the part
// of it that its children's intervals cover. Rolled-up children have no
// interval, so their summed time is subtracted instead.
func (t *tracer) selfTimes() {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Count > 0 {
			continue
		}
		var covered, rolled int64
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartNs < ch[b].StartNs })
		lo, hi := int64(-1), int64(-1)
		for _, c := range ch {
			if c.Count > 0 {
				rolled += c.SelfNs
				continue
			}
			a, b := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
			if a >= b {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		s.SelfNs = max(s.EndNs-s.StartNs-covered-rolled, 0)
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Callback kinds a timed CCA reports.
const (
	cbAck = iota
	cbLoss
	cbSend
	cbTick
	numCallbacks
)

var callbackNames = [numCallbacks]string{"OnAck", "OnLoss", "OnSend", "OnTick"}

// callStats accumulates one algorithm's callback counts and wall time
// within one realization (a realization runs on one goroutine, so no
// locking).
type callStats struct {
	calls [numCallbacks]int64
	ns    [numCallbacks]int64
}

func (c *callStats) time(kind int, start time.Time) {
	c.calls[kind]++
	c.ns[kind] += time.Since(start).Nanoseconds()
}

// timedAlg decorates a CCA, timing each callback. It forwards every call
// unchanged, so the realization is identical to the undecorated one.
type timedAlg struct {
	cca.Algorithm
	st *callStats
}

func (a timedAlg) OnAck(s cca.AckSignal) {
	start := time.Now()
	a.Algorithm.OnAck(s)
	a.st.time(cbAck, start)
}

func (a timedAlg) OnLoss(s cca.LossSignal) {
	start := time.Now()
	a.Algorithm.OnLoss(s)
	a.st.time(cbLoss, start)
}

type timedTicker struct {
	timedAlg
	tk cca.Ticker
}

func (a timedTicker) TickInterval() time.Duration { return a.tk.TickInterval() }

func (a timedTicker) OnTick(now time.Duration) {
	start := time.Now()
	a.tk.OnTick(now)
	a.st.time(cbTick, start)
}

type timedSender struct {
	timedAlg
	so cca.SendObserver
}

func (a timedSender) OnSend(s cca.SendSignal) {
	start := time.Now()
	a.so.OnSend(s)
	a.st.time(cbSend, start)
}

type timedTickerSender struct {
	timedTicker
	so cca.SendObserver
}

func (a timedTickerSender) OnSend(s cca.SendSignal) {
	start := time.Now()
	a.so.OnSend(s)
	a.st.time(cbSend, start)
}

// wrapAlg decorates alg so that the result implements exactly the
// optional interfaces (cca.Ticker, cca.SendObserver) alg implements: the
// sender type-asserts them, so adding or hiding one would change the run.
func wrapAlg(alg cca.Algorithm, st *callStats) cca.Algorithm {
	base := timedAlg{alg, st}
	tk, isTicker := alg.(cca.Ticker)
	so, isSender := alg.(cca.SendObserver)
	switch {
	case isTicker && isSender:
		return timedTickerSender{timedTicker{base, tk}, so}
	case isTicker:
		return timedTicker{base, tk}
	case isSender:
		return timedSender{base, so}
	}
	return base
}
