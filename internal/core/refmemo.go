package core

import (
	"sync"
	"sync/atomic"

	"hetsim/internal/workload"
)

// RefMemo shares RunPair's stand-alone reference runs across the pair
// cells of one sweep. A pair needs two single-core references — the
// baseline DDR3 machine and the organization's own — and the baseline
// one is the same run for every organization of a benchmark, so a
// sweep over N organizations would otherwise simulate it N times.
//
// An entry is keyed by (ConfigKey, workload spec, alone scale) and
// holds only the stand-alone IPC the pair divides by; determinism makes
// it an exact stand-in for re-running the reference. The rules:
//
//   - a reference runs inline on the goroutine that asks for it (never
//     on a second worker slot), and concurrent askers of the same key
//     wait for that one execution;
//   - a reference whose Cancel fired is never kept: its waiters ask
//     again, and the first of them re-runs it under its own hook;
//   - a reference carrying a TraceFn bypasses the memo, so the trace
//     sees every record it would have seen without one.
//
// The zero value is ready to use and safe for concurrent use. A nil
// *RefMemo memoizes nothing: every reference is simulated.
type RefMemo struct {
	mu      sync.Mutex
	entries map[refKey]*refEntry

	executed atomic.Uint64
	reused   atomic.Uint64
}

// RefStats counts stand-alone reference runs asked of a RefMemo.
type RefStats struct {
	Executed uint64 // references simulated (truncated and traced ones included)
	Reused   uint64 // references answered by an earlier execution
}

type refKey struct {
	cfg   ConfigKey
	spec  workload.Spec
	scale RunScale
}

// refEntry is one reference execution. done closes when it ends; kept
// reports whether ipc is a complete answer (false: the run was
// truncated, failed or panicked, and the entry has left the map).
type refEntry struct {
	done chan struct{}
	ipc  float64
	kept bool
}

// Stats reports the memo's reference counts so far.
func (m *RefMemo) Stats() RefStats {
	return RefStats{Executed: m.executed.Load(), Reused: m.reused.Load()}
}

// RunPair is the package-level RunPair with both stand-alone
// references drawn from the memo. Results are identical to RunPair's.
func (m *RefMemo) RunPair(cfg SystemConfig, spec workload.Spec, scale RunScale) (Results, error) {
	sharedSys, err := NewSystem(cfg, spec)
	if err != nil {
		return Results{}, err
	}
	res := sharedSys.Run(scale)

	aloneScale := scale
	aloneScale.WarmupReads = scale.WarmupReads / 4
	aloneScale.MeasureReads = scale.MeasureReads / 4
	// Only the shared run's time-series is interesting; the alone
	// references exist for one IPC ratio each.
	aloneScale.EpochInterval = 0

	baseCfg := Baseline(1)
	baseCfg.Prefetch = cfg.Prefetch
	baseCfg.Seed = cfg.Seed
	// The stand-alone references honour the same deadline/cancellation
	// hook as the shared run, so a cell deadline bounds the whole pair.
	baseCfg.Cancel = cfg.Cancel
	alone, err := m.aloneIPC(baseCfg, spec, aloneScale)
	if err != nil {
		return Results{}, err
	}
	if alone > 0 {
		res.Throughput = res.SumIPC / alone
	}

	selfCfg := cfg
	selfCfg.NCores = 1
	selfAlone, err := m.aloneIPC(selfCfg, spec, aloneScale)
	if err != nil {
		return Results{}, err
	}
	if selfAlone > 0 {
		res.ThroughputSelf = res.SumIPC / selfAlone
	}
	return res, nil
}

// aloneIPC returns the single-core IPC of cfg running spec at scale,
// from the memo when an earlier execution completed.
func (m *RefMemo) aloneIPC(cfg SystemConfig, spec workload.Spec, scale RunScale) (float64, error) {
	if m == nil {
		return runAlone(cfg, spec, scale)
	}
	if cfg.TraceFn != nil {
		m.executed.Add(1)
		return runAlone(cfg, spec, scale)
	}
	key := refKey{cfg.Key(), spec, scale}
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if !ok {
			e = &refEntry{done: make(chan struct{})}
			if m.entries == nil {
				m.entries = make(map[refKey]*refEntry)
			}
			m.entries[key] = e
			m.mu.Unlock()
			return m.fill(key, e, cfg, spec, scale)
		}
		m.mu.Unlock()
		<-e.done
		if e.kept {
			m.reused.Add(1)
			return e.ipc, nil
		}
		// The execution we waited on was discarded; ask again.
	}
}

// fill runs the reference for e and publishes it. Only a run that
// returned normally with its Cancel never firing is kept.
func (m *RefMemo) fill(key refKey, e *refEntry, cfg SystemConfig, spec workload.Spec, scale RunScale) (ipc float64, err error) {
	var fired atomic.Bool
	if c := cfg.Cancel; c != nil {
		cfg.Cancel = func() bool {
			if c() {
				fired.Store(true)
				return true
			}
			return false
		}
	}
	finished := false
	defer func() {
		m.mu.Lock()
		e.ipc, e.kept = ipc, finished && err == nil && !fired.Load()
		if !e.kept {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(e.done)
	}()
	m.executed.Add(1)
	ipc, err = runAlone(cfg, spec, scale)
	finished = true
	return ipc, err
}

// runAlone simulates one stand-alone reference and returns its core-0
// IPC (0 when the run retired nothing).
func runAlone(cfg SystemConfig, spec workload.Spec, scale RunScale) (float64, error) {
	sys, err := NewSystem(cfg, spec)
	if err != nil {
		return 0, err
	}
	res := sys.Run(scale)
	if len(res.IPCs) == 0 {
		return 0, nil
	}
	return res.IPCs[0], nil
}
