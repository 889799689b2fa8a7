package sim

import "math/bits"

// Timing wheel: a bucketed fast path for near-future events, fronting
// the 4-ary main heap (see DESIGN.md §14). Profiles of the serial drive
// loop show heap sift traffic as the single largest kernel cost, and
// almost every event lands within a few hundred cycles of now (CAS
// latencies, bus bursts, controller ticks); only refresh deadlines and
// idle timers run long. The wheel stores those near events in per-cycle
// buckets selected by simple masking, so push and pop are O(1) instead
// of O(log n), while far events still go to the heap.
//
// Invariants:
//   - Every wheel event has when in [wbase, wbase+wheelSpan).
//   - wbase <= now <= earliest pending event, so advancing wbase to now
//     (or to the time of a popped wheel event) never orphans a bucket.
//   - A bucket holds at most one distinct `when` at a time (two times
//     mapping to one bucket would have to lie wheelSpan apart, which the
//     window forbids), kept ordered by (phase, seq) with an insertion
//     shift — globally increasing seq makes that an append in practice.
//   - Every scheduling call goes through qPush, so an event within
//     wheelSpan of now always takes the wheel and only far events
//     reach the heap.
//
// Pop order across wheel+heap is exactly the heap-only (when, phase,
// seq) order: both structures yield their own exact minimum and qPop
// compares the two with event.before. TestWheelMatchesHeapKernel pins
// the equivalence against the raw heap on random streams.

// wheelBits sizes the wheel; the span must comfortably exceed the
// longest common event delta (DRAM data-end completions, a few hundred
// CPU cycles) without making the occupancy bitmap scan expensive. 512
// slots = an 8-word bitmap.
const (
	wheelBits = 9
	wheelSpan = 1 << wheelBits
	wheelMask = wheelSpan - 1
)

// wheelSlot is one bucket: the live events are evs[head:], all at the
// same cycle, ordered by (phase, seq). The backing array is retained
// across reuse so steady state allocates nothing.
type wheelSlot struct {
	evs  []event
	head int
}

// qPush routes a new event to the wheel when it lands inside the near
// horizon, else to the heap.
func (e *Engine) qPush(ev event) {
	e.wbase = e.now // monotone: now never precedes a pending event
	if ev.when-e.wbase < wheelSpan {
		e.wheelInsert(ev)
		return
	}
	heapPush(&e.pq, ev)
}

// wheelInsert adds ev to its bucket, keeping the live region ordered by
// (phase, seq) and the cached minimum slot exact.
func (e *Engine) wheelInsert(ev event) {
	ix := int(ev.when) & wheelMask
	s := &e.wslots[ix]
	if s.head == len(s.evs) { // bucket empty: reset and mark occupied
		if s.evs == nil {
			// Cold slot: reuse a retained backing array instead of
			// growing a fresh one — the pool keeps the whole wheel at
			// zero allocation in steady state even as the window
			// rotates through all wheelSpan slots.
			if n := len(e.wfree); n > 0 {
				s.evs = e.wfree[n-1]
				e.wfree = e.wfree[:n-1]
			}
		}
		s.evs = s.evs[:0]
		s.head = 0
		e.wocc[ix>>6] |= 1 << uint(ix&63)
	}
	s.evs = append(s.evs, ev)
	for i := len(s.evs) - 1; i > s.head; i-- {
		if !s.evs[i].before(&s.evs[i-1]) {
			break
		}
		s.evs[i], s.evs[i-1] = s.evs[i-1], s.evs[i]
	}
	if e.wcount == 0 || (e.wminIx >= 0 && ev.when < e.wslots[e.wminIx].evs[e.wslots[e.wminIx].head].when) {
		e.wminIx = ix
	}
	e.wcount++
}

// wheelPeek returns the wheel's minimum event in place, or nil when the
// wheel is empty. The cached minimum slot is rebuilt by a circular
// occupancy-bitmap scan from wbase when a pop invalidated it.
func (e *Engine) wheelPeek() *event {
	if e.wcount == 0 {
		return nil
	}
	if e.wminIx < 0 {
		e.wheelScan()
	}
	s := &e.wslots[e.wminIx]
	return &s.evs[s.head]
}

// wheelScan locates the first occupied bucket at or after wbase in
// circular time order and caches it in wminIx. The wheel must be
// non-empty.
func (e *Engine) wheelScan() {
	start := int(e.wbase) & wheelMask
	w := start >> 6
	word := e.wocc[w] &^ (1<<uint(start&63) - 1)
	for range e.wocc {
		if word != 0 {
			e.wminIx = w<<6 + bits.TrailingZeros64(word)
			return
		}
		if w++; w == len(e.wocc) {
			w = 0
		}
		word = e.wocc[w]
	}
	// Full wrap: only the below-start bits of the start word remain (the
	// top end of the window).
	word = e.wocc[start>>6] & (1<<uint(start&63) - 1)
	if word == 0 {
		panic("sim: wheel occupancy does not match count")
	}
	e.wminIx = start>>6<<6 + bits.TrailingZeros64(word)
}

// wheelPop removes and returns the wheel minimum. Callers must have
// established it via wheelPeek (which validates wminIx).
func (e *Engine) wheelPop() event {
	s := &e.wslots[e.wminIx]
	ev := s.evs[s.head]
	s.evs[s.head] = event{} // drop handler/arg references for the GC
	s.head++
	e.wcount--
	e.wbase = ev.when // pops come out in time order; slide the window
	if s.head == len(s.evs) {
		if cap(s.evs) > 0 {
			e.wfree = append(e.wfree, s.evs[:0])
			s.evs = nil
		}
		s.head = 0
		e.wocc[e.wminIx>>6] &^= 1 << uint(e.wminIx&63)
		e.wminIx = -1
	}
	return ev
}

// qPeek returns the overall next event (wheel or heap) in place, or nil
// when both are empty.
func (e *Engine) qPeek() *event {
	wt := e.wheelPeek()
	if len(e.pq) > 0 && (wt == nil || e.pq[0].before(wt)) {
		return &e.pq[0]
	}
	return wt
}

// qPop removes and returns the overall next event. Some queue must be
// non-empty.
func (e *Engine) qPop() event {
	wt := e.wheelPeek()
	if wt == nil {
		return heapPop(&e.pq)
	}
	if len(e.pq) > 0 && e.pq[0].before(wt) {
		return heapPop(&e.pq)
	}
	return e.wheelPop()
}
