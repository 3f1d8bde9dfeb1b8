package sim

import "fmt"

// A delay line holds one element's in-flight items — packets crossing a
// propagation delay, waiting in a bottleneck queue, or held by a jitter
// box — in a ring, with only the earliest of them queued in the event heap.
// The heap therefore holds one record per busy element instead of one per
// in-flight packet, and its depth no longer grows with the bandwidth-delay
// product.
//
// The dispatch order is exactly that of scheduling every item as its own
// event. Push reserves the item's (at, seq) key at once — it takes the next
// global seq and counts the item live, as At does — and appends it to
// the ring. Pushes come at non-decreasing times and seq only grows, so the
// ring is sorted by that key. The line's single heap record always carries
// its head entry's reserved key, and when it fires it is re-keyed to the
// next entry's reserved key. Every line's head is the minimum of its
// entries, so the heap minimum is still the global minimum over all pending
// items, and the fired/scheduled/cancelled/live counters move exactly as
// they would with one event per item.

// lineResetter is what Simulator.Reset needs of a Line: drop every held
// entry.
type lineResetter interface{ reset() }

// Line is a delay line delivering payloads of type T to one handler.
// Pushes must come at non-decreasing times — the FIFO case every netem
// element guarantees — and each costs O(1).
type Line[T any] struct {
	s    *Simulator
	fn   func(T)
	ring []lineEntry[T] // power-of-two capacity; entries [head, head+n) are live
	head int
	n    int
	slot int32 // arena record queued for the head entry; noSlot when idle
	// fireFn is fire bound once: the queued record's handler.
	fireFn func()
}

type lineEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewLine returns an empty delay line on s whose entries are delivered to
// fn. The line lives as long as the simulator: Reset empties it.
func NewLine[T any](s *Simulator, fn func(T)) *Line[T] {
	l := &Line[T]{s: s, fn: fn, slot: noSlot}
	l.fireFn = l.fire
	s.lines = append(s.lines, l)
	return l
}

// Len returns the number of entries awaiting dispatch.
func (l *Line[T]) Len() int { return l.n }

// Head returns the reserved time of the next entry to fire.
func (l *Line[T]) Head() (Time, bool) {
	if l.n == 0 {
		return 0, false
	}
	return l.ring[l.head].at, true
}

// Push schedules v for delivery at absolute time t. Like At, it panics on
// a time before now; it also panics on a time before the line's latest
// entry, since a line only ever appends.
func (l *Line[T]) Push(t Time, v T) {
	s := l.s
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	if l.n > 0 {
		if tail := l.ring[(l.head+l.n-1)&mask].at; t < tail {
			panic(fmt.Sprintf("sim: delay-line push at %v before its tail %v", t, tail))
		}
	}
	seq := s.seq
	s.seq++
	s.live++
	l.ring[(l.head+l.n)&mask] = lineEntry[T]{at: t, seq: seq, v: v}
	l.n++
	if l.n > 1 {
		return
	}
	// The line was idle: queue a record for the new head.
	l.slot = s.alloc()
	rec := &s.arena[l.slot]
	rec.at, rec.seq = t, seq
	rec.kind = kindLine
	rec.fn = l.fireFn
	s.heapPush(l.slot)
}

// Clear cancels every held entry, counting each as one cancelled event
// (as cancelling its own handle would), and appends their payloads to dst
// in dispatch order.
func (l *Line[T]) Clear(dst []T) []T {
	if l.n == 0 {
		return dst
	}
	s := l.s
	mask := len(l.ring) - 1
	for i := 0; i < l.n; i++ {
		e := &l.ring[(l.head+i)&mask]
		dst = append(dst, e.v)
		*e = lineEntry[T]{}
	}
	s.heapRemove(s.arena[l.slot].heapIdx)
	s.free(l.slot)
	s.live -= l.n
	s.cancelled += uint64(l.n)
	l.slot = noSlot
	l.head, l.n = 0, 0
	return dst
}

// fire dispatches the head entry. The simulator has already advanced the
// clock and counted the event; the line's record is the heap root.
func (l *Line[T]) fire() {
	s := l.s
	e := &l.ring[l.head]
	v := e.v
	*e = lineEntry[T]{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		// Re-arm under the next entry's reserved key. The key only grows,
		// so the root sifts down in place.
		next := &l.ring[l.head]
		rec := &s.arena[l.slot]
		rec.at, rec.seq = next.at, next.seq
		s.siftDown(0)
	} else {
		s.heapRemove(0)
		s.free(l.slot)
		l.slot = noSlot
	}
	l.fn(v)
}

// reset drops every held entry without counting it (Simulator.Reset has
// already discarded the heap and the arena records).
func (l *Line[T]) reset() {
	mask := len(l.ring) - 1
	for i := 0; i < l.n; i++ {
		l.ring[(l.head+i)&mask] = lineEntry[T]{}
	}
	l.head, l.n = 0, 0
	l.slot = noSlot
}

// grow doubles the ring, unrolling the live entries to its start.
func (l *Line[T]) grow() {
	c := 2 * len(l.ring)
	if c == 0 {
		c = 16
	}
	ring := make([]lineEntry[T], c)
	mask := len(l.ring) - 1
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&mask]
	}
	l.ring = ring
	l.head = 0
}
