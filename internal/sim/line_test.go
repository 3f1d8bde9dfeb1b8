package sim

import (
	"fmt"
	"testing"
	"time"
)

// lineScript drives a random mix of monotone delay-line pushes, re-times
// (cancel every held entry and push it again in order, as
// netem.Link.SetRate does), plain events and cancels. With useLines the
// pushes go to delay lines; without, every item is its own At event and a
// re-time cancels each item's handle — the schedule the delay lines
// replace. Every decision draws from the simulator's RNG
// inside event handlers, so the two runs take the same decisions exactly
// as long as they dispatch the same events in the same order.
type lineScript struct {
	s        *Simulator
	useLines bool
	log      []string

	lines   []*Line[int64]
	handler []func(int64)
	last    []Time       // latest push time per line
	held    [][]refEntry // reference mode: pending items per line, push order
	plain   []Handle     // plain events, some already fired or cancelled
	nextID  int64
	scratch []int64
}

type refEntry struct {
	id int64
	h  Handle
}

const scriptLines = 3

func newLineScript(s *Simulator, useLines bool) *lineScript {
	ls := &lineScript{s: s, useLines: useLines}
	for k := 0; k < scriptLines; k++ {
		k := k
		fn := func(id int64) { ls.deliver(k, id) }
		ls.handler = append(ls.handler, fn)
		ls.lines = append(ls.lines, NewLine(s, fn))
	}
	ls.last = make([]Time, scriptLines)
	ls.held = make([][]refEntry, scriptLines)
	return ls
}

func (ls *lineScript) note(format string, args ...any) {
	st := ls.s.Stats()
	ls.log = append(ls.log, fmt.Sprintf("%v ", ls.s.Now())+fmt.Sprintf(format, args...)+
		fmt.Sprintf(" |%d/%d/%d/%d", st.Scheduled, st.Fired, st.Cancelled, st.Live))
}

// put schedules item id on line k at a time no earlier than its last push.
func (ls *lineScript) put(k int, at Time, id int64) {
	ls.last[k] = at
	if ls.useLines {
		ls.lines[k].Push(at, id)
		return
	}
	fn := ls.handler[k]
	h := ls.s.At(at, func() { fn(id) })
	ls.held[k] = append(ls.held[k], refEntry{id: id, h: h})
}

// push schedules a new item on line k, clamped monotone like a delay box.
func (ls *lineScript) push(k int, at Time) {
	id := ls.nextID
	ls.nextID++
	if at < ls.last[k] {
		at = ls.last[k]
	}
	ls.put(k, at, id)
}

// cancelAll cancels line k's held items and returns them in dispatch order
// (push order: pushes are monotone and equal times fire FIFO).
func (ls *lineScript) cancelAll(k int) []int64 {
	if ls.useLines {
		ls.scratch = ls.lines[k].Clear(ls.scratch[:0])
		return ls.scratch
	}
	ls.scratch = ls.scratch[:0]
	for _, e := range ls.held[k] {
		e.h.Cancel()
		ls.scratch = append(ls.scratch, e.id)
	}
	ls.held[k] = ls.held[k][:0]
	return ls.scratch
}

func (ls *lineScript) retime(k int, step Time) {
	items := append([]int64(nil), ls.cancelAll(k)...)
	at := ls.s.Now()
	for _, id := range items {
		at += step
		ls.put(k, at, id)
	}
	ls.note("retime line=%d n=%d", k, len(items))
}

func (ls *lineScript) deliver(k int, id int64) {
	if !ls.useLines {
		held := ls.held[k]
		for i := range held {
			if held[i].id == id {
				ls.held[k] = append(held[:i], held[i+1:]...)
				break
			}
		}
	}
	ls.note("line=%d id=%d", k, id)
	rng := ls.s.Rand()
	if rng.Intn(4) == 0 {
		// Chain into another line, as a link feeds a propagation stage.
		next := (k + 1) % scriptLines
		ls.push(next, ls.s.Now()+Time(rng.Intn(3000))*time.Microsecond)
	}
}

// tick is the driver: a plain self-rescheduling event taking a few random
// actions per firing.
func (ls *lineScript) tick(left int) {
	rng := ls.s.Rand()
	now := ls.s.Now()
	for n := rng.Intn(4); n > 0; n-- {
		switch op := rng.Intn(10); {
		case op < 5: // push
			ls.push(rng.Intn(scriptLines), now+Time(rng.Intn(5000))*time.Microsecond)
		case op < 7: // plain event
			id := ls.nextID
			ls.nextID++
			at := now + Time(rng.Intn(4000))*time.Microsecond
			ls.plain = append(ls.plain, ls.s.At(at, func() { ls.note("plain id=%d", id) }))
		case op < 9: // cancel a plain event (maybe already fired: a no-op)
			if len(ls.plain) > 0 {
				ls.plain[rng.Intn(len(ls.plain))].Cancel()
			}
		default:
			ls.retime(rng.Intn(scriptLines), Time(1+rng.Intn(800))*time.Microsecond)
		}
	}
	if left > 0 {
		ls.s.After(time.Duration(rng.Intn(1500))*time.Microsecond, func() { ls.tick(left - 1) })
	}
}

// run drives the script to a horizon that leaves items held, then lets it
// drain, and returns the dispatch log with the final counters.
func (ls *lineScript) run() []string {
	ls.s.At(0, func() { ls.tick(400) })
	ls.s.Run(150 * time.Millisecond)
	ls.note("horizon")
	for ls.s.Step() {
	}
	st := ls.s.Stats()
	return append(ls.log, fmt.Sprintf("final %d/%d/%d/%d", st.Scheduled, st.Fired, st.Cancelled, st.Live))
}

func diffLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %q, want %q", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
}

// TestPropertyLineMatchesPerItemEvents is the delay line's contract: for
// random schedules mixing several lines, plain events, cancels and
// re-times, the dispatch sequence and every Stats counter but HeapMax are
// identical to scheduling each item as its own event.
func TestPropertyLineMatchesPerItemEvents(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref := newLineScript(New(seed), false)
		want := ref.run()
		got := newLineScript(New(seed), true)
		gotLog := got.run()
		diffLogs(t, fmt.Sprintf("seed %d", seed), gotLog, want)
		if len(want) < 200 {
			t.Fatalf("seed %d: script too small to mean anything (%d entries)", seed, len(want))
		}
		if hl, hr := got.s.Stats().HeapMax, ref.s.Stats().HeapMax; hl > hr {
			t.Errorf("seed %d: lines peak heap %d > per-item %d", seed, hl, hr)
		}
	}
}

// TestLineResetDropsHeldEntries: Reset empties every line, so a reset
// simulator replays the script exactly like a fresh one.
func TestLineResetDropsHeldEntries(t *testing.T) {
	want := newLineScript(New(3), true).run()

	s := New(99)
	ls := newLineScript(s, true)
	ls.s.At(0, func() { ls.tick(400) })
	s.Run(100 * time.Millisecond) // stop with items held
	held := 0
	for _, l := range ls.lines {
		held += l.Len()
	}
	if held == 0 {
		t.Fatal("script left nothing held at the horizon; the test would prove nothing")
	}
	s.Reset(3)
	for k, l := range ls.lines {
		if l.Len() != 0 {
			t.Fatalf("line %d holds %d entries after Reset", k, l.Len())
		}
	}
	if st := s.Stats(); st.Live != 0 || st.HeapMax != 0 {
		t.Fatalf("stats after Reset: %+v", st)
	}
	// Replay on the same lines (as a recycled network does).
	ls.log, ls.plain, ls.nextID = nil, nil, 0
	for k := range ls.last {
		ls.last[k] = 0
	}
	diffLogs(t, "reset replay", ls.run(), want)
}

// TestLineHeapHoldsOneRecordPerLine: however many entries a line holds,
// it occupies one heap record, and dispatches them in push order.
func TestLineHeapHoldsOneRecordPerLine(t *testing.T) {
	s := New(1)
	var got []int64
	l := NewLine(s, func(id int64) { got = append(got, id) })
	for i := 0; i < 1000; i++ {
		l.Push(Time(i/2)*time.Microsecond, int64(i)) // pairs share a time
	}
	if st := s.Stats(); st.Live != 1000 || st.HeapMax != 1 || l.Len() != 1000 {
		t.Fatalf("stats %+v len %d; want 1000 live in one heap record", st, l.Len())
	}
	s.Run(time.Second)
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("dispatch %d delivered item %d", i, id)
		}
	}
	if len(got) != 1000 {
		t.Fatalf("dispatched %d items, want 1000", len(got))
	}
}

// TestLinePushBeforeTailPanics: a line only appends, so a push earlier
// than its latest entry is a logic error, reported like At in the past.
func TestLinePushBeforeTailPanics(t *testing.T) {
	s := New(1)
	l := NewLine(s, func(int64) {})
	l.Push(2*time.Millisecond, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("push before the tail did not panic")
		}
	}()
	l.Push(time.Millisecond, 1)
}
