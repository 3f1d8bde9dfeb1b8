package main

import (
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: one
// fixed piece of CPU work, timed a tenth of a second at a time, takes from
// 63 to 258 ms, and the means of 20 s windows of it spread by 12–17 %
// (README.md). So the end-to-end times other than setup_s are
// host-normalized: the benchmark times a fixed reference kernel of its own
// between units of measured work, on one goroutine, and reports each time
// as it would read on a host where one reference slice takes refSlice. A
// program change moves only the measured work, never the kernel, so a
// program 10 % slower still reads 10 % slower.

const (
	// calOps is the number of kernel steps in one reference slice.
	calOps = 500_000
	// refSlice is what one reference slice takes on the reference host;
	// normalized times are in seconds of that host.
	refSlice = 100 * time.Millisecond
)

// calEvent is one entry of the kernel's event heap.
type calEvent struct {
	at   int64
	slot uint32
}

// calState is one goroutine's kernel: a binary event heap, a 2 MiB array
// hit at pseudo-random offsets and a small map, so that the kernel, like
// the simulator, mixes heap operations, cache misses and hashing. It
// allocates nothing once built, so it triggers no garbage collection.
type calState struct {
	heap  []calEvent
	cells []int64
	table map[uint32]int64
	rng   uint64
	sink  int64
}

func newCalState() *calState {
	s := &calState{heap: make([]calEvent, 0, 4096), cells: make([]int64, 1<<18),
		table: make(map[uint32]int64, 8192), rng: 1}
	for i := 0; i < 4096; i++ {
		s.push(calEvent{int64(s.next() >> 44), uint32(i)})
		s.table[uint32(i)] = 0
	}
	return s
}

func (s *calState) next() uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return s.rng
}

func (s *calState) push(e calEvent) {
	h := append(s.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *calState) pop() calEvent {
	h := s.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].at < h[l].at {
			l = r
		}
		if h[i].at <= h[l].at {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	s.heap = h
	return top
}

// run takes n kernel steps.
func (s *calState) run(n int) {
	var acc int64
	for i := 0; i < n; i++ {
		e := s.pop()
		j := (uint64(e.at) * 2654435761) % uint64(len(s.cells))
		s.cells[j] += e.at
		acc += s.cells[j]
		if i%4 == 0 {
			s.table[uint32(j)&4095] += acc
		}
		s.push(calEvent{e.at + 1 + int64(s.next()>>52), e.slot})
	}
	s.sink += acc
}

// hostClock samples the host's speed with reference slices.
type hostClock struct {
	state  *calState
	slices []time.Duration
}

func newHostClock() *hostClock {
	h := &hostClock{state: newCalState()}
	h.slice() // untimed: faults the kernel's memory in
	return h
}

// slice runs one reference slice and returns its wall time. A sync and a
// garbage collection first finish the measured work's pending writeback
// and collection work, so that neither runs beside the kernel.
func (h *hostClock) slice() time.Duration {
	syscall.Sync()
	runtime.GC()
	start := time.Now()
	h.state.run(calOps)
	return time.Since(start)
}

// sample times one reference slice and keeps it.
func (h *hostClock) sample() { h.slices = append(h.slices, h.slice()) }

// slowdown is how much slower than the reference host the host ran over the
// samples taken: the mean slice time over refSlice.
func (h *hostClock) slowdown() float64 {
	var sum time.Duration
	for _, d := range h.slices {
		sum += d
	}
	return float64(sum) / float64(len(h.slices)) / float64(refSlice)
}
