package sim

import (
	"math/rand"
	"testing"
)

// TestWheelMatchesHeapKernel drives random schedule/fire interleavings
// through the wheel-fronted queue (qPush/qPop) and a plain heap holding
// the very same events, and requires identical pop order — including the
// (phase, seq) tie-breaks at equal times. The stream mixes near events
// (inside the wheel window), far events (straight to the heap), events
// that straddle the wheelSpan boundary, and long idle jumps that rotate
// the window through every slot index, so bucket wrap-around and the
// occupancy-bitmap rescan both get exercised.
func TestWheelMatchesHeapKernel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		var e Engine // wheel + heap under test
		var ref []event
		var seq uint64
		pending := 0
		push := func() {
			seq++
			var delta Cycle
			switch rng.Intn(4) {
			case 0: // same-cycle ties and very-near events
				delta = Cycle(rng.Intn(8))
			case 1: // inside the wheel window
				delta = Cycle(rng.Intn(wheelSpan))
			case 2: // straddling the window edge
				delta = wheelSpan - 4 + Cycle(rng.Intn(8))
			default: // far future: heap-only territory
				delta = wheelSpan + Cycle(rng.Intn(4*wheelSpan))
			}
			ev := event{when: e.now + delta, seq: seq,
				phase: uint64(rng.Intn(3)), h: funcRunner}
			e.qPush(ev)
			heapPush(&ref, ev)
			pending++
		}
		pop := func(at string) {
			top := *e.qPeek() // copy: qPop zeroes the peeked slot in place
			got, want := e.qPop(), heapPop(&ref)
			if top.when != got.when || top.phase != got.phase || top.seq != got.seq {
				t.Fatalf("seed %d %s: qPeek disagreed with qPop", seed, at)
			}
			if got.when != want.when || got.phase != want.phase || got.seq != want.seq {
				t.Fatalf("seed %d %s: pop = (%d,%d,%d), heap-only = (%d,%d,%d)",
					seed, at, got.when, got.phase, got.seq, want.when, want.phase, want.seq)
			}
			e.now = got.when // pops come out in time order, as in RunUntil
			pending--
		}
		for step := 0; step < 6000; step++ {
			if pending == 0 || rng.Intn(3) != 0 {
				push()
			} else {
				pop("step")
			}
			// Occasionally drain and idle-jump far ahead so wbase sweeps
			// through arbitrary slot offsets before the next burst.
			if pending > 0 && rng.Intn(200) == 0 {
				for pending > 0 {
					pop("drain")
				}
				e.now += Cycle(rng.Intn(16 * wheelSpan))
			}
		}
		for pending > 0 {
			pop("final-drain")
		}
		if e.wcount != 0 || len(e.pq) != 0 {
			t.Fatalf("seed %d: queue kept %d wheel + %d heap events past the reference",
				seed, e.wcount, len(e.pq))
		}
	}
}

// TestWheelZeroAlloc pins the wheel's steady-state allocation contract:
// once every bucket backing array has been through the shared retention
// pool, pushing and popping near-future events allocates nothing, even
// as the window rotates through all wheelSpan slots.
func TestWheelZeroAlloc(t *testing.T) {
	var e Engine
	h := &nopHandler{}
	spread := func() {
		for i := 0; i < 96; i++ {
			// Spread over the whole window, several events per bucket.
			e.ScheduleEvent(Cycle(1+(i*37)%wheelSpan), h, nil)
		}
		e.RunUntil(e.Now() + wheelSpan)
	}
	spread() // warm the bucket-array pool and the free-list capacity
	avg := testing.AllocsPerRun(100, spread)
	if avg != 0 {
		t.Fatalf("wheel push/pop allocated %.1f times per rotation, want 0", avg)
	}
}

// TestPhasedScheduleUsesWheel: a phased event (the form controller ticks
// use) and a normal event scheduled inside the wheel window land in the
// wheel; a far one goes to the heap. All still fire in (when, phase,
// seq) order.
func TestPhasedScheduleUsesWheel(t *testing.T) {
	var e Engine
	var got []int
	e.ScheduleEventAt(wheelSpan+10, funcRunner, func() { got = append(got, 3) })
	e.SchedulePhasedAt(5, e.NewPhase(), phasedFunc{}, func() { got = append(got, 2) })
	e.ScheduleEventAt(5, funcRunner, func() { got = append(got, 1) })
	if e.wcount != 2 || len(e.pq) != 1 {
		t.Fatalf("wheel holds %d and heap %d events, want 2 and 1", e.wcount, len(e.pq))
	}
	e.RunUntil(2 * wheelSpan)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}

// phasedFunc runs a func() arg as a phased event.
type phasedFunc struct{ funcEvent }

func (phasedFunc) OnPhasedEvent(arg any, _ uint64) { arg.(func())() }
