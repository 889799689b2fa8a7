// Lane-parallel event execution.
//
// A Lane is a private event queue owned by one simulation domain (e.g.
// the line-channel controllers, or the critical-word controllers). When
// an engine has lanes, RunUntil switches to a conservative parallel
// discrete-event loop: it computes a synchronization horizon H from the
// minimum cross-domain interaction latency of each lane (its lookahead),
// lets every lane with work below H advance concurrently on its own
// goroutine up to H, then deterministically merges the events the lanes
// emitted for other domains before the next horizon.
//
// Determinism contract: a lane-parallel run is byte-identical to the
// serial run of the same model. The pieces that make that hold:
//
//   - Main-context scheduling (between windows) is untouched: it draws
//     sequence numbers from the engine's global counter exactly as the
//     serial kernel does, whichever queue the event lands in.
//   - Inside a window a lane assigns lane-local sequence numbers starting
//     from the engine counter's value at window open. Those events are
//     consumed inside the window, where only same-lane comparisons are
//     possible, and the lane executes its queue in exactly the order the
//     serial kernel would (the restriction of the serial total order to
//     this queue — legal because nothing outside the lane can schedule
//     below H).
//   - Every in-window scheduled event that survives the window — a
//     cross-domain emission (target main) or a deferred self event at or
//     beyond the horizon — passes through the merge. The merge sorts
//     survivors by generator chronology (genWhen, genPhase, genSeq,
//     emit, lane): the (when, phase, seq) identity of the dispatching
//     event plus its per-dispatch emission index. That is the order in
//     which the serial kernel would have executed the generators and
//     therefore assigned sequence numbers, so assigning fresh global
//     numbers in that order (after bumping the global counter past every
//     lane counter) reproduces the serial relative order for all live
//     events. Cross-lane collisions of the full key require two phase-0
//     generators at the same cycle in different lanes, which the model
//     only produces for state-disjoint pairs; the lane id keeps even
//     those deterministic.
//   - Phases (NewPhase) are only ever allocated from main context —
//     Lane.NewPhase panics inside a window — so phase values order
//     identically in both modes.
//
// Barriers: maintenance deadlines (refresh) must dispatch on the main
// queue out-of-window, because their handlers allocate phases and kick
// controllers. A lane registers the deadline in a barrier slot; the
// engine caps every horizon at the earliest barrier, and a barrier
// scheduled mid-window immediately shrinks the running window's limit
// (sweeping any already-pushed in-window events at/after the new limit
// back through the merge, where the push log preserves their tags).
package sim

import (
	"fmt"
	"runtime/debug"
)

// neverCycle mirrors the model-wide "no deadline" sentinel.
const neverCycle = Cycle(1<<62 - 1)

// pending is an in-window scheduled event awaiting the merge, tagged
// with the chronology of the dispatch that generated it.
type pending struct {
	when  Cycle
	phase uint64
	h     EventHandler
	arg   any

	genWhen  Cycle  // when of the generating dispatch
	genPhase uint64 // phase of the generating dispatch
	genSeq   uint64 // seq of the generating dispatch
	emit     int    // nth schedule call of that dispatch
	lane     int    // emitting lane (deterministic final tie-break)
	target   int    // -1 = main queue, else lane index
	seq      uint64 // lane-local seq of a direct push (log entries only)
}

// chronoBefore orders merge survivors by serial scheduling chronology.
func chronoBefore(a, b *pending) bool {
	if a.genWhen != b.genWhen {
		return a.genWhen < b.genWhen
	}
	if a.genPhase != b.genPhase {
		return a.genPhase < b.genPhase
	}
	if a.genSeq != b.genSeq {
		return a.genSeq < b.genSeq
	}
	if a.emit != b.emit {
		return a.emit < b.emit
	}
	return a.lane < b.lane
}

// Lane is one domain's event queue. A Lane with id < 0 is the main-queue
// proxy: every call forwards to the engine, so entities can hold a *Lane
// unconditionally and behave exactly as before when no lanes exist.
type Lane struct {
	eng     *Engine
	id      int
	minLead Cycle // lookahead: in-window cross emissions land ≥ now+minLead

	pq    []event
	lnow  Cycle  // lane clock while a window is active
	seq   uint64 // lane-local seq counter (seeded from the engine at open)
	open  uint64 // engine seq value at window open (in-window pushes are > open)
	fired uint64 // dispatches this window (folded into the engine at close)

	active      bool  // a window is running (set/cleared around the worker)
	dispatching int   // >0 while inside an in-window handler
	limit       Cycle // exclusive horizon of the running window

	out []pending // survivors for the merge
	log []pending // every in-window direct push (for barrier sweeps)

	// Chronology of the current in-window dispatch.
	genWhen  Cycle
	genPhase uint64
	genSeq   uint64
	emit     int

	barriers []Cycle // per-slot out-of-window deadlines (neverCycle = none)

	start    chan struct{}
	done     chan struct{}
	panicVal any
}

// MainLane returns the proxy lane for the engine's own queue. Entities
// hold this by default; it forwards every operation to the engine.
func (e *Engine) MainLane() *Lane {
	if e.main == nil {
		e.main = &Lane{eng: e, id: -1}
	}
	return e.main
}

// NewLane creates a parallel lane with the given lookahead: the minimum
// number of cycles between an in-window dispatch and the earliest event
// it may schedule outside its own lane. The engine switches to the
// windowed parallel loop once at least one lane exists. Call StopLanes
// when the run is over to release the worker goroutines.
func (e *Engine) NewLane(minLead Cycle) *Lane {
	if minLead < 1 {
		panic("sim: lane lookahead must be at least 1 cycle")
	}
	// The parallel loop works on the main heap directly, so the wheel
	// fast path shuts off while lanes exist: drain it into the heap.
	e.flushWheel()
	l := &Lane{
		eng:     e,
		id:      len(e.lanes),
		minLead: minLead,
		start:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.lanes = append(e.lanes, l)
	go l.run()
	return l
}

// StopLanes shuts down the lane workers and reverts the engine to the
// serial kernel. Any events still queued on a lane are folded back into
// the main queue (they already carry globally ordered sequence numbers
// once the last window has merged).
func (e *Engine) StopLanes() {
	for _, l := range e.lanes {
		close(l.start)
		for _, ev := range l.pq {
			e.push(ev)
		}
		l.pq = nil
	}
	e.lanes = nil
}

// EnableYield arms RequestYield. The drive loop arms it for the span of
// a parallel drive so that wake deliveries hand control back at exactly
// the cycles the serial drive would step cores.
func (e *Engine) EnableYield(on bool) {
	e.yieldArmed = on
	if !on {
		e.yieldReq = false
	}
}

// RequestYield asks the running RunUntil to finish the current cycle and
// return early. Call it from a main-context event handler (e.g. a wake
// delivery). No-op unless armed by EnableYield.
func (e *Engine) RequestYield() {
	if e.yieldArmed {
		e.yieldReq = true
	}
}

// AddBarrierSlot reserves a barrier slot on the lane (one per entity
// with out-of-window deadlines). Returns -1 on the main proxy.
func (l *Lane) AddBarrierSlot() int {
	if l.id < 0 {
		return -1
	}
	l.barriers = append(l.barriers, neverCycle)
	return len(l.barriers) - 1
}

// ClearBarrier clears a slot's deadline (call when the barrier event
// dispatches). No-op on the main proxy.
func (l *Lane) ClearBarrier(slot int) {
	if l.id < 0 || slot < 0 {
		return
	}
	l.barriers[slot] = neverCycle
}

// barrierFloor is the earliest registered deadline.
func (l *Lane) barrierFloor() Cycle {
	f := neverCycle
	for _, b := range l.barriers {
		if b < f {
			f = b
		}
	}
	return f
}

// Now reports the lane's current time: the lane clock inside a window,
// the engine clock otherwise.
func (l *Lane) Now() Cycle {
	if l.id >= 0 && l.active {
		return l.lnow
	}
	return l.eng.now
}

// InDispatch mirrors Engine.InDispatch for lane context.
func (l *Lane) InDispatch() bool {
	if l.id >= 0 && l.active {
		return l.dispatching > 0
	}
	return l.eng.InDispatch()
}

// NewPhase forwards to the engine. Phases are global ordering state, so
// allocating one inside a window would diverge from the serial order —
// the model must only start scheduling sessions from main context.
func (l *Lane) NewPhase() uint64 {
	if l.id >= 0 && l.active {
		panic("sim: NewPhase inside a lane window")
	}
	return l.eng.NewPhase()
}

// ScheduleEvent schedules onto the lane's own queue after delay cycles.
func (l *Lane) ScheduleEvent(delay Cycle, h EventHandler, arg any) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	l.ScheduleEventAt(l.Now()+delay, h, arg)
}

// ScheduleEventAt schedules onto the lane's own queue at absolute cycle
// when.
func (l *Lane) ScheduleEventAt(when Cycle, h EventHandler, arg any) {
	l.schedule(when, 0, h, arg)
}

// SchedulePhasedAt schedules a phased event onto the lane's own queue.
func (l *Lane) SchedulePhasedAt(when Cycle, phase uint64, h PhasedHandler, arg any) {
	if phase == 0 {
		panic("sim: phased event needs a nonzero phase (use NewPhase)")
	}
	l.schedule(when, phase, h, arg)
}

func (l *Lane) schedule(when Cycle, phase uint64, h EventHandler, arg any) {
	e := l.eng
	if l.id < 0 || !l.active {
		// Main context: global sequence numbers, exactly as serial.
		if when < e.now {
			panic("sim: event scheduled in the past")
		}
		e.seq++
		ev := event{when: when, seq: e.seq, phase: phase, h: h, arg: arg}
		if l.id < 0 {
			e.qPush(ev) // near events take the wheel, as on the engine's own calls
		} else {
			heapPush(&l.pq, ev)
		}
		return
	}
	// Window context.
	if when < l.lnow {
		panic("sim: event scheduled in the past")
	}
	l.emit++
	if when < l.limit {
		l.seq++
		ev := event{when: when, seq: l.seq, phase: phase, h: h, arg: arg}
		heapPush(&l.pq, ev)
		l.log = append(l.log, pending{when: when, phase: phase, h: h, arg: arg,
			genWhen: l.genWhen, genPhase: l.genPhase, genSeq: l.genSeq,
			emit: l.emit, lane: l.id, target: l.id, seq: ev.seq})
		return
	}
	l.out = append(l.out, pending{when: when, phase: phase, h: h, arg: arg,
		genWhen: l.genWhen, genPhase: l.genPhase, genSeq: l.genSeq,
		emit: l.emit, lane: l.id, target: l.id})
}

// ScheduleMainEventAt schedules onto the main queue (a cross-domain
// emission, e.g. a fill completion handed back to the hierarchy). Inside
// a window the target cycle must lie at or beyond the horizon — that is
// exactly the lookahead contract NewLane was given.
func (l *Lane) ScheduleMainEventAt(when Cycle, h EventHandler, arg any) {
	e := l.eng
	if l.id < 0 || !l.active {
		e.ScheduleEventAt(when, h, arg)
		return
	}
	if when < l.limit {
		panic(fmt.Sprintf("sim: lane %d lookahead violation: cross event at %d inside window ending %d",
			l.id, when, l.limit))
	}
	l.emit++
	l.out = append(l.out, pending{when: when, h: h, arg: arg,
		genWhen: l.genWhen, genPhase: l.genPhase, genSeq: l.genSeq,
		emit: l.emit, lane: l.id, target: -1})
}

// ScheduleBarrierEventAt schedules an out-of-window main-queue event at
// when and registers it in the lane's barrier slot so no window advances
// past it. Scheduled mid-window, it shrinks the running window.
func (l *Lane) ScheduleBarrierEventAt(when Cycle, h EventHandler, arg any, slot int) {
	e := l.eng
	if l.id < 0 {
		e.ScheduleEventAt(when, h, arg)
		return
	}
	if !l.active {
		l.barriers[slot] = when
		e.ScheduleEventAt(when, h, arg)
		return
	}
	if when <= l.lnow {
		panic("sim: lane barrier not in the strict future")
	}
	l.barriers[slot] = when
	l.emit++
	l.out = append(l.out, pending{when: when, h: h, arg: arg,
		genWhen: l.genWhen, genPhase: l.genPhase, genSeq: l.genSeq,
		emit: l.emit, lane: l.id, target: -1})
	l.shrink(when)
}

// shrink caps the running window at d and sweeps already-pushed
// in-window events at/after d back through the merge (their push-log
// entries carry the chronology tags the merge needs).
func (l *Lane) shrink(d Cycle) {
	if d >= l.limit {
		return
	}
	l.limit = d
	moved := false
	for i := range l.log {
		if l.log[i].when >= d {
			l.out = append(l.out, l.log[i])
			moved = true
		}
	}
	if !moved {
		return
	}
	// Drop the swept events from the queue: in-window pushes are exactly
	// those with seq > open (lane seqs are seeded from the engine counter
	// at window open, so pre-window events all have seq ≤ open).
	j := 0
	for _, ev := range l.pq {
		if ev.seq > l.open && ev.when >= d {
			continue
		}
		l.pq[j] = ev
		j++
	}
	for k := j; k < len(l.pq); k++ {
		l.pq[k] = event{}
	}
	l.pq = l.pq[:j]
	heapInit(l.pq)
	// Compact the log to the entries still in the queue.
	j = 0
	for i := range l.log {
		if l.log[i].when < d {
			l.log[j] = l.log[i]
			j++
		}
	}
	l.log = l.log[:j]
}

// run is the persistent worker goroutine: one window per start signal.
func (l *Lane) run() {
	for range l.start {
		func() {
			defer func() {
				if r := recover(); r != nil {
					l.panicVal = fmt.Sprintf("sim: lane %d worker panic: %v\n%s", l.id, r, debug.Stack())
				}
			}()
			l.window()
		}()
		l.active = false
		l.done <- struct{}{}
	}
}

// window drains the lane queue strictly below the (possibly shrinking)
// horizon, in exactly the order the serial kernel would.
func (l *Lane) window() {
	burst := 0
	for len(l.pq) > 0 && l.pq[0].when < l.limit {
		ev := heapPop(&l.pq)
		if ev.when != l.lnow {
			l.lnow = ev.when
			burst = 0
		}
		l.genWhen, l.genPhase, l.genSeq, l.emit = ev.when, ev.phase, ev.seq, 0
		l.dispatching++
		if ev.phase != 0 {
			ev.h.(PhasedHandler).OnPhasedEvent(ev.arg, ev.phase)
		} else {
			ev.h.OnEvent(ev.arg)
		}
		l.dispatching--
		l.fired++
		if burst++; burst > sameCycleEventLimit {
			panic(fmt.Sprintf(
				"sim: watchdog: lane %d executed %d events at cycle %d without time advancing (queue=%d)",
				l.id, burst, l.lnow, len(l.pq)))
		}
	}
}

// runParallel is RunUntil for an engine with lanes: serial-step the
// globally earliest event when no window is possible (identical to the
// serial kernel), otherwise open a window up to the horizon and merge.
func (e *Engine) runParallel(end Cycle) uint64 {
	startFired := e.fired
	burst := 0
	for {
		best, bt := e.globalMin()
		if bt == nil || bt.when > end {
			if e.now < end {
				e.now = end
			}
			return e.fired - startFired
		}
		// Horizon: capped by the requested end, the main queue, every
		// lane's earliest possible cross emission, and every barrier.
		h := end + 1
		if len(e.pq) > 0 && e.pq[0].when < h {
			h = e.pq[0].when
		}
		ready := 0
		for _, l := range e.lanes {
			if f := l.barrierFloor(); f < h {
				h = f
			}
			if len(l.pq) > 0 {
				if lim := l.pq[0].when + l.minLead; lim < h {
					h = lim
				}
			}
		}
		for _, l := range e.lanes {
			if len(l.pq) > 0 && l.pq[0].when < h {
				ready++
			}
		}
		if ready >= 2 {
			e.runWindow(h)
			continue
		}
		// Serial-step: pop the global minimum and dispatch it on this
		// goroutine with main-context semantics — byte-identical to the
		// serial kernel whichever queue it came from.
		var ev event
		if best < 0 {
			ev = e.pop()
		} else {
			ev = heapPop(&e.lanes[best].pq)
		}
		if ev.when > e.now {
			e.now = ev.when
			burst = 0
		}
		e.dispatch(&ev)
		e.fired++
		if burst++; burst > sameCycleEventLimit {
			panic(fmt.Sprintf(
				"sim: watchdog: %d events executed at cycle %d without time advancing (queue=%d) — a handler is rescheduling itself at zero delay",
				burst, e.now, e.Len()))
		}
		if e.yieldReq {
			e.drainCycle()
			e.yieldReq = false
			return e.fired - startFired
		}
	}
}

// globalMin scans all queue tops for the earliest (when, phase, seq)
// event; ties resolve to the main queue, then lowest lane index, which
// is deterministic. Returns (-1, top) for the main queue, (i, top) for
// lane i, or (0, nil) when every queue is empty.
func (e *Engine) globalMin() (int, *event) {
	best := -1
	var bt *event
	if len(e.pq) > 0 {
		bt = &e.pq[0]
	}
	for i, l := range e.lanes {
		if len(l.pq) > 0 && (bt == nil || l.pq[0].before(bt)) {
			best, bt = i, &l.pq[0]
		}
	}
	return best, bt
}

// drainCycle serial-steps every remaining event at the current cycle so
// a yield returns with the cycle fully settled (the serial drive's
// RunUntil(now) contract).
func (e *Engine) drainCycle() {
	burst := 0
	for {
		best, bt := e.globalMin()
		if bt == nil || bt.when > e.now {
			return
		}
		var ev event
		if best < 0 {
			ev = e.pop()
		} else {
			ev = heapPop(&e.lanes[best].pq)
		}
		e.dispatch(&ev)
		e.fired++
		if burst++; burst > sameCycleEventLimit {
			panic(fmt.Sprintf(
				"sim: watchdog: %d events executed at cycle %d without time advancing (queue=%d) — a handler is rescheduling itself at zero delay",
				burst, e.now, e.Len()))
		}
	}
}

// runWindow advances every lane with work below h concurrently, then
// folds their dispatch counts and merges surviving emissions in serial
// chronology order.
func (e *Engine) runWindow(h Cycle) {
	e.windows++
	parts := e.parts[:0]
	for _, l := range e.lanes {
		if len(l.pq) > 0 && l.pq[0].when < h {
			l.limit = h
			l.open = e.seq
			l.seq = e.seq
			l.fired = 0
			l.lnow = -1 << 62 // first dispatch sets the lane clock
			l.out = l.out[:0]
			l.log = l.log[:0]
			l.active = true
			parts = append(parts, l)
		}
	}
	e.parts = parts
	for _, l := range parts {
		l.start <- struct{}{}
	}
	for _, l := range parts {
		<-l.done
	}
	var pv any
	for _, l := range parts {
		if l.panicVal != nil && pv == nil {
			pv = l.panicVal
			l.panicVal = nil
		}
	}
	if pv != nil {
		panic(pv)
	}
	mb := e.mergeBuf[:0]
	maxSeq := e.seq
	for _, l := range parts {
		e.fired += l.fired
		if l.seq > maxSeq {
			maxSeq = l.seq
		}
		mb = append(mb, l.out...)
		l.out = l.out[:0]
		l.log = l.log[:0]
	}
	e.seq = maxSeq
	// Insertion sort by generator chronology: survivor counts per window
	// are small, and this stays allocation-free.
	for i := 1; i < len(mb); i++ {
		p := mb[i]
		j := i - 1
		for j >= 0 && chronoBefore(&p, &mb[j]) {
			mb[j+1] = mb[j]
			j--
		}
		mb[j+1] = p
	}
	for i := range mb {
		p := &mb[i]
		e.seq++
		ev := event{when: p.when, seq: e.seq, phase: p.phase, h: p.h, arg: p.arg}
		if p.target < 0 {
			e.push(ev)
		} else {
			heapPush(&e.lanes[p.target].pq, ev)
		}
		mb[i] = pending{} // drop handler/arg references
	}
	e.mergeBuf = mb[:0]
}
