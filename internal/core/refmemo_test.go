package core

import (
	"sync"
	"testing"

	"hetsim/internal/trace"
)

// tinyScale keeps the memo tests cheap enough for -race -count=10.
func tinyScale() RunScale {
	return RunScale{WarmupReads: 40, MeasureReads: 200, MaxCycles: 5_000_000}
}

// TestRefMemoConcurrentAskersShareOneExecution: eight goroutines asking
// for the same reference at once cause exactly one simulation, and all
// of them get the stand-alone answer.
func TestRefMemoConcurrentAskersShareOneExecution(t *testing.T) {
	spec, scale := mustSpec(t, "libquantum"), tinyScale()
	cfg := Baseline(1)
	want, err := runAlone(cfg, spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	var memo RefMemo
	const askers = 8
	got := make([]float64, askers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ipc, err := memo.aloneIPC(cfg, spec, scale)
			if err != nil {
				t.Error(err)
			}
			got[i] = ipc
		}()
	}
	wg.Wait()
	for i, ipc := range got {
		if ipc != want {
			t.Errorf("asker %d: ipc %v, want %v", i, ipc, want)
		}
	}
	if st := memo.Stats(); st != (RefStats{Executed: 1, Reused: askers - 1}) {
		t.Fatalf("stats %+v, want 1 executed, %d reused", st, askers-1)
	}
}

// TestRefMemoDropsTruncatedReference: a reference whose Cancel fired is
// not kept. A caller that was waiting on it re-runs it under its own
// (silent) hook and gets the unmemoized answer, which is then kept.
func TestRefMemoDropsTruncatedReference(t *testing.T) {
	spec, scale := mustSpec(t, "libquantum"), tinyScale()
	cfg := Baseline(1)
	want, err := runAlone(cfg, spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	var memo RefMemo

	// The truncated run holds its entry until release closes, so the
	// second caller finds it in flight (or, if scheduled late, finds
	// the map empty again); either way it must not see the partial IPC.
	started, release := make(chan struct{}), make(chan struct{})
	cut := cfg
	first := true
	cut.Cancel = func() bool {
		if first {
			first = false
			close(started)
			<-release
		}
		return true
	}
	truncated := make(chan float64, 1)
	go func() {
		ipc, err := memo.aloneIPC(cut, spec, scale)
		if err != nil {
			t.Error(err)
		}
		truncated <- ipc
	}()
	<-started
	waiter := make(chan float64, 1)
	go func() {
		ipc, err := memo.aloneIPC(cfg, spec, scale)
		if err != nil {
			t.Error(err)
		}
		waiter <- ipc
	}()
	close(release)
	if ipc := <-truncated; ipc == want {
		t.Fatalf("a run cut at its first poll reproduced the full answer %v", ipc)
	}
	if ipc := <-waiter; ipc != want {
		t.Fatalf("caller after a truncated reference: ipc %v, want %v", ipc, want)
	}
	if st := memo.Stats(); st != (RefStats{Executed: 2}) {
		t.Fatalf("stats %+v, want 2 executed, 0 reused", st)
	}
	if ipc, _ := memo.aloneIPC(cfg, spec, scale); ipc != want {
		t.Fatalf("memoized ipc %v, want %v", ipc, want)
	}
	if st := memo.Stats(); st != (RefStats{Executed: 2, Reused: 1}) {
		t.Fatalf("stats %+v, want the completed re-run kept", st)
	}
}

// TestRefMemoBypassedByTrace: a reference carrying a TraceFn always
// simulates, so its trace is complete.
func TestRefMemoBypassedByTrace(t *testing.T) {
	spec, scale := mustSpec(t, "libquantum"), tinyScale()
	var memo RefMemo
	cfg := Baseline(1)
	if _, err := memo.aloneIPC(cfg, spec, scale); err != nil {
		t.Fatal(err)
	}
	records := 0
	cfg.TraceFn = func(trace.Record) { records++ }
	if _, err := memo.aloneIPC(cfg, spec, scale); err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("traced reference emitted no records")
	}
	if st := memo.Stats(); st != (RefStats{Executed: 2}) {
		t.Fatalf("stats %+v, want the traced reference executed", st)
	}
}
