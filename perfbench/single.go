package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"hetsim/internal/core"
	"hetsim/internal/telemetry"
	"hetsim/internal/workload"
)

// singleScale sizes one repetition of a single-run workload: the
// functional prewarm and warmup window fill the modelled caches, then
// the measured window runs to its read target. MaxCycles is far above
// what the target needs, so a run that stops on it has stalled.
var singleScale = core.RunScale{
	PrewarmOps: 120_000, WarmupReads: 10_000, MeasureReads: 100_000, MaxCycles: 8_000_000_000,
}

// setupSamples is how many times a sweep run starts and stops a
// sweepd child before its first repetition, and singleSetupSamples
// how many machines a single run builds; setup_s is the median over
// these and every repetition's own set-up.
const (
	setupSamples       = 15
	singleSetupSamples = 101
)

// runCWFStream is the paper's flagship organization on a streaming
// benchmark whose 64 MB per-core footprint keeps the controllers busy.
func runCWFStream(o options, tr *tracer, rep *report) error {
	return runSingle(o, tr, rep, "libquantum")
}

// runComputeBound is the same machine on a compute-bound benchmark:
// the core, cache hierarchy and event kernel dominate.
func runComputeBound(o options, tr *tracer, rep *report) error {
	return runSingle(o, tr, rep, "sjeng")
}

// singleRun holds the state shared by the repetitions of one run.
type singleRun struct {
	cfg   core.SystemConfig
	spec  workload.Spec
	tr    *tracer
	rep   *report
	row   string // CSV row of the first repetition
	exact map[string]float64

	setup            []float64
	untraced, traced speed
	allocs, bytes    []float64
	newSystem        []float64
	model            core.Results
}

func runSingle(o options, tr *tracer, rep *report, bench string) error {
	spec, err := workload.Get(bench)
	if err != nil {
		return err
	}
	cfg := core.RL(8)
	cfg.Seed = uint64(o.seed)
	s := &singleRun{cfg: cfg, spec: spec, tr: tr, rep: rep}

	root := tr.begin("setup", 0)
	for i := 0; i < singleSetupSamples; i++ {
		runtime.GC()
		c := cpuSeconds()
		if _, err := core.NewSystem(cfg, spec); err != nil {
			return err
		}
		s.setup = append(s.setup, cpuSeconds()-c)
	}
	tr.end(root)

	if !o.trace {
		start := time.Now()
		for n := 0; n < 2 || !deadline(start, o.seconds); n++ {
			if err := rep.ref.tick(); err != nil {
				return err
			}
			if err := s.once(false); err != nil {
				return err
			}
		}
		s.untraced.set(rep)
		rep.set("setup_s", "s", median(s.setup))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return nil
	}

	// Traced: untraced repetitions alternate with repetitions under the
	// CPU profile and spans, so the gap between the two medians is the
	// tracing overhead and slow drift of the host affects both alike.
	var profiles []string
	start := time.Now()
	for n := 0; n < 4 || !deadline(start, o.seconds); n++ {
		if err := rep.ref.tick(); err != nil {
			return err
		}
		on := n%2 == 1
		tr.on = on
		var prof *profiler
		if on {
			path := filepath.Join(o.work, fmt.Sprintf("cpu-%d.pprof", n))
			if prof, err = startProfile(path); err != nil {
				return err
			}
			profiles = append(profiles, path)
		}
		err := s.once(on)
		if prof != nil {
			if perr := prof.stop(); err == nil {
				err = perr
			}
		}
		if err != nil {
			return err
		}
	}
	layers, err := rollupProfiles(profiles)
	if err != nil {
		return err
	}
	setLayers(rep, layers)
	s.untraced.set(rep)
	for k, v := range s.exact {
		rep.set(k, unitOf(k), v)
	}
	rep.set("runtime.allocs_per_read", "count", median(s.allocs))
	rep.set("runtime.alloc_bytes_per_read", "bytes", median(s.bytes))
	rep.set("core.new_system_s", "s", median(s.newSystem))
	setModel(rep, s.model)
	rep.set("trace.overhead_frac", "fraction", 1-median(s.traced.rate)/median(s.untraced.rate))
	return nil
}

// once builds the machine and runs one repetition, reading the
// registry window and the allocator counters around the timed Run.
func (s *singleRun) once(traced bool) error {
	runtime.GC()
	root := s.tr.begin("rep", 0)
	defer s.tr.end(root)

	sp := s.tr.begin("core.NewSystem", root)
	t, c := time.Now(), cpuSeconds()
	sys, err := core.NewSystem(s.cfg, s.spec)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.setup = append(s.setup, cpuSeconds()-c)
	s.newSystem = append(s.newSystem, time.Since(t).Seconds())

	// Every repetition does the same bookkeeping outside the timed Run,
	// so traced and untraced ones differ only in the profile and spans.
	before := sys.Reg.Snapshot(sys.Eng.Now())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	sp = s.tr.begin("core.System.Run", root)
	res := sys.Run(singleScale)
	s.tr.end(sp)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	sp = s.tr.begin("telemetry.Snapshot", root)
	v := telemetry.NewView(sys.Reg, before, sys.Reg.Snapshot(sys.Eng.Now()))
	s.tr.end(sp)

	row := strings.Join(res.CSVRow(), ",")
	if s.row == "" {
		s.row = row
	}
	into := &s.untraced
	if traced {
		into = &s.traced
	}
	into.add(float64(res.DemandReads)/cpu, cpu, s.rep.ref.last())
	s.model = res
	if !traced { // the profiler allocates on its own
		reads := float64(res.DemandReads)
		s.allocs = append(s.allocs, float64(ms1.Mallocs-ms0.Mallocs)/reads)
		s.bytes = append(s.bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/reads)
	}

	// The run passes when it reached its read target undegraded and its
	// row and every exact count match the first repetition's.
	counts := windowCounts(v, sys.Reg.Names(), res)
	if s.exact == nil {
		s.exact = counts
	}
	var drift []string
	for k, want := range s.exact {
		if counts[k] != want {
			drift = append(drift, fmt.Sprintf("%s %v (first %v)", k, counts[k], want))
		}
	}
	s.rep.op(row == s.row && res.DemandReads >= singleScale.MeasureReads && !res.Degraded && len(drift) == 0,
		"%s seed %d: row digest %s (first %s), %d of %d reads, degraded=%v, counts differing %v",
		s.spec.Name, s.cfg.Seed, digest(res.CSVRow()), digest(strings.Split(s.row, ",")),
		res.DemandReads, singleScale.MeasureReads, res.Degraded, drift)
	return nil
}

// windowCounts derives the per-layer counts from one registry window
// covering a whole Run. Ratios per read use the same window's demand
// fills; the data-bus fraction is the run's line-channel utilization.
func windowCounts(v telemetry.View, names []string, res core.Results) map[string]float64 {
	sumOf := func(suffix string) float64 {
		var t float64
		for _, n := range names {
			if strings.HasSuffix(n, suffix) {
				t += v.Delta(n)
			}
		}
		return t
	}
	ctrl := func(field string) float64 { // per-controller counters mem.gG.cC.field
		var t float64
		for _, n := range names {
			if strings.HasPrefix(n, "mem.g") && strings.Count(n, ".") == 3 && strings.HasSuffix(n, "."+field) {
				t += v.Delta(n)
			}
		}
		return t
	}
	group := func(field string) float64 { // per-group aggregates mem.gG.field
		var t float64
		for _, n := range names {
			if strings.HasPrefix(n, "mem.g") && strings.Count(n, ".") == 2 && strings.HasSuffix(n, "."+field) {
				t += v.Delta(n)
			}
		}
		return t
	}
	reads := v.Delta("hier.demand_fills")
	hits, misses := ctrl("row_hits"), ctrl("row_misses")
	return map[string]float64{
		"memctrl.reads_queued":  ctrl("reads_queued"),
		"memctrl.row_hit_frac":  hits / (hits + misses),
		"memctrl.drains":        ctrl("drains"),
		"memctrl.queue_lat_cyc": v.WindowMean("mem.queue_lat"),
		"dram.acts_per_read":    group("acts") / reads,
		"dram.refreshes":        group("refreshes"),
		"dram.data_busy_frac":   res.BusUtil,
		"sim.events_per_read":   v.Delta("sim.events") / reads,
		"cpu.retired_per_read":  sumOf(".retired") / reads,
		"cpu.dep_stalls":        sumOf(".dep_stalls"),
		"cpu.retry_stalls":      sumOf(".retry_stalls"),
		"cache.merged_frac":     v.Delta("hier.merged_misses") / reads,
		"cache.prefetch_fills":  v.Delta("hier.prefetch_fills"),
		"cache.writebacks":      v.Delta("hier.writebacks"),
		"cache.wb_overflow":     v.Delta("hier.wb_overflow"),
	}
}

// setModel reports the simulated outcome of a run; a speed-only change
// must leave these identical.
func setModel(rep *report, r core.Results) {
	rep.set("model.sum_ipc", "ipc", r.SumIPC)
	rep.set("model.crit_latency_cyc", "cycles", r.CritLatency)
	rep.set("model.crit_fast_frac", "fraction", r.CritFromFastFrac)
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuSeconds is this process's user+system CPU time, read from the
// nanosecond process CPU clock (rusage counts only microseconds, too
// coarse for a NewSystem of a few hundred).
func cpuSeconds() float64 {
	var ts syscall.Timespec
	_, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if e != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", e))
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
