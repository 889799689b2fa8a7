// Command perfbench is hetsim's end-to-end and per-layer benchmark.
//
// It drives the simulator through public calls only — core.NewSystem
// and (*core.System).Run for single runs, the sweepd HTTP API for
// sweeps, store.Open/Get/Put and lease.Manager for the durability
// layer — and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics. With
// -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also takes a CPU profile, records spans and registry window deltas,
// and reports the per-layer metrics instead. README.md describes the
// workloads and metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload cwf-stream --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sweepd   string // path of the built sweepd binary
	work     string // scratch directory for this run's files
	traceDir string // where the traced run writes its spans
}

// report collects one run's metrics and operation outcomes, and the
// reference passes taken between its repetitions.
type report struct {
	tally
	metrics map[string]metric
	ref     refClock
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// speed holds, per repetition, the demand reads per CPU second, the
// CPU seconds per cell, and the CPU seconds of the reference pass taken
// just before the repetition.
type speed struct{ rate, cpu, ref []float64 }

func (s *speed) add(rate, cpu, ref float64) {
	s.rate = append(s.rate, rate)
	s.cpu = append(s.cpu, cpu)
	s.ref = append(s.ref, ref)
}

// set reports the speed metrics. The end-to-end ones count each
// repetition's CPU time in its own reference pass, so a host that slows
// down for everyone moves them much less than it moves CPU seconds; the
// host.* metrics keep the raw figures.
func (s *speed) set(r *report) {
	var perRef, perCell []float64
	for i := range s.rate {
		perRef = append(perRef, s.rate[i]*s.ref[i])
		perCell = append(perCell, s.cpu[i]/s.ref[i])
	}
	r.set("reads_per_ref", "1/ref", median(perRef))
	r.set("ref_per_cell", "ref", median(perCell))
	r.set("host.ref_cpu_s", "s", r.ref.seconds())
	r.set("host.reads_per_cpu_s", "1/s", median(s.rate))
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	var trace int
	var ref bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.sweepd, "sweepd", ".bench_build/sweepd", "sweepd binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "span output directory")
	flag.BoolVar(&ref, "ref-pass", false, "run one reference pass, print its CPU seconds and exit")
	flag.Parse()
	if ref {
		fmt.Println(refPass())
		return 0
	}
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads %v, -trace 0|1, -seconds > 0)\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.work = dir
	defer os.RemoveAll(dir)

	man := newManifest(o)
	tr := newTracer(o.trace)
	rep := newReport()
	if err := run(o, tr, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	man.RefCPUS = rep.ref.seconds()
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", n)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = metric{Unit: m.unit}
		}
		out.Metrics[m.name] = v
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	if o.trace {
		if err := tr.write(o.traceDir, man, out.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"manifest": man}); err != nil {
		return 1
	}
	if err := enc.Encode(out); err != nil {
		return 1
	}
	return 0
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *tracer, *report) error{
	"cwf-stream":    runCWFStream,
	"compute-bound": runComputeBound,
	"sweep-cold":    runSweepCold,
	"sweep-warm":    runSweepWarm,
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"reads_per_ref", "1/ref"},
	{"ref_per_cell", "ref"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerPkgs are the hetsim/internal packages whose profile self time
// is reported as <pkg>.self_s; samples in any other internal package
// are summed into internal.other_s.
var layerPkgs = []string{"sim", "memctrl", "dram", "cpu", "cache", "core", "prefetch",
	"workload", "telemetry", "stats", "power", "store", "lease"}

// perLayer are the metrics of a traced run, on every workload. A layer
// the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, p := range layerPkgs {
		ds = append(ds, metricDef{p + ".self_s", "s"})
	}
	return append(ds, []metricDef{
		{"internal.other_s", "s"},
		{"runtime.other_s", "s"},
		{"profile.total_s", "s"},
		{"memctrl.reads_queued", "count"},
		{"memctrl.row_hit_frac", "fraction"},
		{"memctrl.drains", "count"},
		{"memctrl.queue_lat_cyc", "cycles"},
		{"dram.acts_per_read", "count"},
		{"dram.refreshes", "count"},
		{"dram.data_busy_frac", "fraction"},
		{"sim.events_per_read", "count"},
		{"cpu.retired_per_read", "count"},
		{"cpu.dep_stalls", "count"},
		{"cpu.retry_stalls", "count"},
		{"cache.merged_frac", "fraction"},
		{"cache.prefetch_fills", "count"},
		{"cache.writebacks", "count"},
		{"cache.wb_overflow", "count"},
		{"runtime.allocs_per_read", "count"},
		{"runtime.alloc_bytes_per_read", "bytes"},
		{"core.new_system_s", "s"},
		{"store.put_s", "s"},
		{"store.get_s", "s"},
		{"store.entry_bytes", "bytes"},
		{"lease.acquire_s", "s"},
		{"lease.release_s", "s"},
		{"sweepd.cells_per_s", "1/s"},
		{"sweepd.submit_s", "s"},
		{"sweepd.results_wait_s", "s"},
		{"sweepd.spawn_s", "s"},
		{"sweepd.executed", "count"},
		{"sweepd.restored", "count"},
		{"sweepd.restored_frac", "fraction"},
		{"model.sum_ipc", "ipc"},
		{"model.crit_latency_cyc", "cycles"},
		{"model.crit_fast_frac", "fraction"},
		{"trace.overhead_frac", "fraction"},
		{"host.ref_cpu_s", "s"},
		{"host.reads_per_cpu_s", "1/s"},
	}...)
}()

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// deadline reports whether a phase that started at start has used its
// share of the measuring time.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}

// scratchDir makes a fresh subdirectory of the run's scratch space.
func scratchDir(o options, name string) (string, error) {
	d := filepath.Join(o.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
