package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/lease"
	"hetsim/internal/store"
	"hetsim/internal/workload"
)

// sweepConfigs are the seven memory organizations of the sweep grid;
// every one runs every benchmark as a pair cell at quick scale.
var sweepConfigs = []string{"baseline", "rl", "rd", "dl", "rl-ad", "dram-cache", "hmc-mix"}

const (
	sweepScale = "quick"
	sweepCores = 8
)

// jobSpec is the subset of sweepd's JobSpec the benchmark submits.
type jobSpec struct {
	Config     string   `json:"config"`
	Benchmarks []string `json:"benchmarks"`
	Scale      string   `json:"scale"`
	Cores      int      `json:"cores"`
	Pair       bool     `json:"pair"`
}

// jobStatus is the subset of sweepd's Status the benchmark reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Failed   int    `json:"failed"`
	Poisoned int    `json:"poisoned"`
	Executed uint64 `json:"executed"`
	Restored uint64 `json:"restored"`
}

// sweepGrid returns the grid as one job per organization. The sweep
// API carries no workload seed, so the seed orders the submissions:
// which organization goes first and the benchmark order inside each
// job. Every seed therefore covers the same cells.
func sweepGrid(seed int64) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	var jobs []jobSpec
	for _, i := range rng.Perm(len(sweepConfigs)) {
		names := workload.Names()
		rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		jobs = append(jobs, jobSpec{Config: sweepConfigs[i], Benchmarks: names,
			Scale: sweepScale, Cores: sweepCores, Pair: true})
	}
	return jobs
}

func cellName(config, bench string) string { return config + "/" + bench }

// sweepd is one running sweepd child process.
type sweepd struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{} // closed once the process has exited
	err    error         // Wait's error, read after done
	log    *os.File
}

// startSweepd spawns sweepd over cache and state and waits until
// /readyz answers 200. It returns the seconds cmd.Start took and the
// CPU seconds the child had used by then: its set-up. Set-up is
// counted in CPU time because the wall time to ready is mostly fsync
// latency (store creation and the readiness probe), which on a shared
// disk varied more than twofold between runs of the same code.
func startSweepd(o options, cache, state string) (*sweepd, float64, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, spawn, ready, err := trySweepd(o, cache, state)
		if err == nil {
			return d, spawn, ready, nil
		}
		lastErr = err
	}
	return nil, 0, 0, lastErr
}

func trySweepd(o options, cache, state string) (*sweepd, float64, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, 0, err
	}
	log, err := os.Create(filepath.Join(o.work, "sweepd.log"))
	if err != nil {
		return nil, 0, 0, err
	}
	cmd := exec.Command(o.sweepd, "-addr", addr, "-cache-dir", cache, "-state-dir", state,
		"-j", strconv.Itoa(runtime.NumCPU()), "-poll", "0", "-owner", "perfbench")
	cmd.Stdout, cmd.Stderr = log, log
	d := &sweepd{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: log,
		client: &http.Client{Timeout: 150 * time.Second}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, 0, fmt.Errorf("start sweepd: %w", err)
	}
	spawn := time.Since(t0).Seconds()
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	limit := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cpu, err := d.cpuSeconds()
				if err != nil {
					d.kill()
					return nil, 0, 0, err
				}
				return d, spawn, cpu, nil
			}
		}
		select {
		case <-d.done:
			log.Close()
			return nil, 0, 0, fmt.Errorf("sweepd exited before ready: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(limit) {
			d.kill()
			return nil, 0, 0, fmt.Errorf("sweepd not ready after 30s")
		}
	}
}

// freeAddr picks a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// kill stops the process at once and waits for it.
func (d *sweepd) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.client.CloseIdleConnections()
	d.log.Close()
}

// stop drains the process with SIGTERM and waits for it to exit.
func (d *sweepd) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("sweepd did not drain within 60s")
	}
	d.log.Close()
	if d.err != nil {
		return fmt.Errorf("sweepd: %v", d.err)
	}
	return nil
}

// peakRSSMB is the running process's peak resident set size so far,
// VmHWM in /proc/<pid>/status. Read after the last results row, it
// covers serving the grid and leaves out the drain at exit.
func (d *sweepd) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// cpuSeconds is the CPU time the running process has used so far: the
// sum over its threads of the nanoseconds /proc/<pid>/task/*/schedstat
// reports run. Unlike rusage it can be read before the process exits,
// so a window of the process's life can be measured.
func (d *sweepd) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

func (d *sweepd) submit(spec jobSpec) (jobStatus, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return jobStatus{}, err
	}
	resp, err := d.client.Post(d.base+"/api/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return jobStatus{}, fmt.Errorf("submit %s: %s: %s", spec.Config, resp.Status, msg)
	}
	var st jobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (d *sweepd) status(id string) (jobStatus, error) {
	resp, err := d.client.Get(d.base + "/api/v1/sweeps/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("status %s: %s", id, resp.Status)
	}
	var st jobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// results waits for the job's results.csv and returns its header and
// rows.
func (d *sweepd) results(id string) ([]string, [][]string, error) {
	resp, err := d.client.Get(d.base + "/api/v1/sweeps/" + id + "/results.csv?wait=1")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("results %s: %s", id, resp.Status)
	}
	recs, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("results %s: %w", id, err)
	}
	if len(recs) == 0 {
		return nil, nil, nil
	}
	return recs[0], recs[1:], nil
}

// sweepOutcome is what one submission of the grid to one sweepd
// child measured.
type sweepOutcome struct {
	spawn, ready, submit, wait, elapsed float64 // ready: the child's CPU seconds at /readyz
	cpu, rssMB                          float64 // the child's CPU, first submit to last row, and peak RSS by then
	cells                               int
	rows                                map[string]string // cell -> Results CSV row
	header                              []string          // Results CSV header
	reads                               float64           // demand reads over all rows
	executed, restored                  uint64
}

// sweepOnce spawns sweepd over cache and a fresh state directory,
// submits every job of the grid in order, waits for every results
// row, checks every cell (see checkJob; ref may be nil), and stops the
// child.
func sweepOnce(o options, tr *tracer, rep *report, jobs []jobSpec, cache, state string, ref map[string]string) (sweepOutcome, error) {
	out := sweepOutcome{rows: map[string]string{}}
	root := tr.begin("sweep", 0)
	defer tr.end(root)

	sp := tr.begin("sweepd.spawn", root)
	d, spawn, ready, err := startSweepd(o, cache, state)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.spawn, out.ready = spawn, ready
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	cpu0, err := d.cpuSeconds()
	if err != nil {
		return out, err
	}
	start := time.Now()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		sp := tr.begin("sweepd.submit", root)
		st, err := d.submit(j)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		ids[i] = st.ID
	}
	out.submit = time.Since(start).Seconds()
	got := make([][][]string, len(jobs))
	for i, id := range ids {
		sp := tr.begin("sweepd.results", root)
		header, rows, err := d.results(id)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		if out.header == nil && len(header) > 3 {
			out.header = header[3:]
		}
		got[i] = rows
	}
	out.elapsed = time.Since(start).Seconds()
	out.wait = out.elapsed - out.submit
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return out, err
	}
	out.cpu = cpu1 - cpu0
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return out, err
	}

	for i, j := range jobs {
		sp := tr.begin("sweepd.status", root)
		st, err := d.status(ids[i])
		tr.end(sp)
		if err != nil {
			return out, err
		}
		out.executed, out.restored = st.Executed, st.Restored
		rows, reads := checkJob(&rep.tally, j, st, out.header, got[i], ref)
		for k, v := range rows {
			out.rows[k] = v
		}
		out.cells += len(j.Benchmarks)
		out.reads += reads
	}

	sp = tr.begin("sweepd.stop", root)
	err = d.stop()
	stopped = true
	tr.end(sp)
	return out, err
}

// setupTimes starts and stops sweepd setupSamples times over cache and
// an empty state directory, returning the CPU seconds each used to
// become ready.
func setupTimes(o options, cache string) ([]float64, error) {
	var ts []float64
	for i := 0; i < setupSamples; i++ {
		state, err := scratchDir(o, "setup-state")
		if err != nil {
			return nil, err
		}
		d, _, ready, err := startSweepd(o, cache, state)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		ts = append(ts, ready)
	}
	return ts, nil
}

// checkJob counts one operation per cell of job j. A cell passes when
// its results row is present with positive demand reads, its job ended
// done with no failed or poisoned cell, and, given reference rows, the
// row equals its reference byte for byte. It returns every present row
// keyed by cell, and the demand reads of the passing cells.
func checkJob(t *tally, j jobSpec, st jobStatus, header []string, rows [][]string, ref map[string]string) (map[string]string, float64) {
	readsCol := column(header, "demand_reads")
	byBench := map[string]string{}
	readsOf := map[string]float64{}
	for _, r := range rows {
		if len(r) <= 3 {
			continue
		}
		f := r[3:]
		byBench[r[2]] = strings.Join(f, ",")
		if readsCol >= 0 && readsCol < len(f) {
			readsOf[r[2]], _ = strconv.ParseFloat(f[readsCol], 64)
		}
	}
	jobOK := st.State == "done" && st.Failed == 0 && st.Poisoned == 0
	got := map[string]string{}
	var reads float64
	for _, b := range j.Benchmarks {
		name := cellName(j.Config, b)
		row, present := byBench[b]
		want, haveRef := ref[name]
		ok := present && readsOf[b] > 0 && jobOK && (ref == nil || (haveRef && row == want))
		t.op(ok, "sweep cell %s: row %q, reference %q, job %s with %d failed and %d poisoned",
			name, row, want, st.State, st.Failed, st.Poisoned)
		if present {
			got[name] = row
		}
		if ok {
			reads += readsOf[b]
		}
	}
	return got, reads
}

// column returns the index of name in header, or -1.
func column(header []string, name string) int {
	for i, h := range header {
		if h == name {
			return i
		}
	}
	return -1
}

// sweepSeries accumulates the per-submission samples of a run.
type sweepSeries struct {
	speed
	cps, ready, rss, spawn, submit, wait []float64
	last                                 sweepOutcome
}

// add records one sweep; ref is the CPU seconds of the reference pass
// taken just before it.
func (s *sweepSeries) add(out sweepOutcome, ref float64) {
	s.speed.add(out.reads/out.cpu, out.cpu/float64(out.cells), ref)
	s.cps = append(s.cps, float64(out.cells)/out.elapsed)
	s.ready = append(s.ready, out.ready)
	s.rss = append(s.rss, out.rssMB)
	s.spawn = append(s.spawn, out.spawn)
	s.submit = append(s.submit, out.submit)
	s.wait = append(s.wait, out.wait)
	s.last = out
}

func (s *sweepSeries) setEndToEnd(rep *report) {
	s.speed.set(rep)
	rep.set("setup_s", "s", median(s.ready))
	rep.set("peak_rss_mb", "MB", median(s.rss))
}

// setSweepd reports the service-side per-layer metrics.
func (s *sweepSeries) setSweepd(rep *report) {
	rep.set("sweepd.cells_per_s", "1/s", median(s.cps))
	rep.set("sweepd.spawn_s", "s", median(s.spawn))
	rep.set("sweepd.submit_s", "s", median(s.submit))
	rep.set("sweepd.results_wait_s", "s", median(s.wait))
	rep.set("sweepd.executed", "count", float64(s.last.executed))
	rep.set("sweepd.restored", "count", float64(s.last.restored))
	rep.set("sweepd.restored_frac", "fraction",
		float64(s.last.restored)/float64(s.last.executed+s.last.restored))
}

// gridCell is one cell of the grid with the configuration and store
// key sweepd derives for it.
type gridCell struct {
	name string
	cfg  core.SystemConfig
	spec workload.Spec
	key  store.RunKey
}

// gridCells expands the grid into its cells, in submission order.
func gridCells(jobs []jobSpec) ([]gridCell, error) {
	scale, err := grid.Scale(sweepScale)
	if err != nil {
		return nil, err
	}
	var cells []gridCell
	for _, j := range jobs {
		cfg, err := grid.Config(j.Config, j.Cores)
		if err != nil {
			return nil, err
		}
		for _, b := range j.Benchmarks {
			spec, err := workload.Get(b)
			if err != nil {
				return nil, err
			}
			cells = append(cells, gridCell{name: cellName(j.Config, b), cfg: cfg, spec: spec,
				key: store.RunKey{Cfg: cfg.Key(), Bench: b, Scale: scale, Pair: true}})
		}
	}
	return cells, nil
}

// checkSampledCell runs one seed-chosen cell in process through
// core.RunPair and checks that sweepd's row equals it.
func checkSampledCell(o options, tr *tracer, rep *report, cells []gridCell, rows map[string]string) error {
	c := cells[rand.New(rand.NewSource(o.seed)).Intn(len(cells))]
	scale, err := grid.Scale(sweepScale)
	if err != nil {
		return err
	}
	sp := tr.begin("core.RunPair", 0)
	res, err := core.RunPair(c.cfg, c.spec, scale)
	tr.end(sp)
	if err != nil {
		return err
	}
	row := strings.Join(res.CSVRow(), ",")
	rep.op(rows[c.name] == row, "sampled cell %s: sweepd row %q, in-process RunPair %q", c.name, rows[c.name], row)
	return nil
}

// runSweepCold submits the grid to fresh sweepd children over empty
// cache and state directories: every cell builds its systems,
// simulates, takes a lease and writes a store entry.
func runSweepCold(o options, tr *tracer, rep *report) error {
	jobs := sweepGrid(o.seed)
	cells, err := gridCells(jobs)
	if err != nil {
		return err
	}
	setupCache, err := scratchDir(o, "setup-cache")
	if err != nil {
		return err
	}
	ready, err := setupTimes(o, setupCache)
	if err != nil {
		return err
	}
	var ref map[string]string
	var header []string
	var cache string
	n := 0
	untraced, traced, err := repeatSweeps(o, tr, &rep.ref, ready, 1, func() (sweepOutcome, error) {
		var err error
		if cache, err = scratchDir(o, fmt.Sprintf("cold-%d/cache", n)); err != nil {
			return sweepOutcome{}, err
		}
		state, err := scratchDir(o, fmt.Sprintf("cold-%d/state", n))
		if err != nil {
			return sweepOutcome{}, err
		}
		// Keep only the newest cache: the traced run replays it.
		if n > 0 {
			os.RemoveAll(filepath.Join(o.work, fmt.Sprintf("cold-%d", n-1)))
		}
		n++
		out, err := sweepOnce(o, tr, rep, jobs, cache, state, ref)
		if err != nil {
			return out, err
		}
		if ref == nil {
			ref, header = out.rows, out.header
			if err := checkSampledCell(o, tr, rep, cells, ref); err != nil {
				return out, err
			}
		}
		rep.check(out.executed == uint64(len(cells)) && out.restored == 0,
			"cold sweep executed %d, restored %d of %d cells", out.executed, out.restored, len(cells))
		return out, nil
	})
	if err != nil {
		return err
	}
	if !o.trace {
		untraced.setEndToEnd(rep)
		return nil
	}
	rep.set("trace.overhead_frac", "fraction", 1-median(traced.rate)/median(untraced.rate))
	traced.setSweepd(rep)
	untraced.speed.set(rep)
	setRowModel(rep, header, ref)

	// The sweepd child cannot be profiled from outside, so the profile
	// covers the same cells run in process.
	if err := newSystemTimes(tr, rep, cells); err != nil {
		return err
	}
	path := filepath.Join(o.work, "cpu.pprof")
	prof, err := startProfile(path)
	if err != nil {
		return err
	}
	reads, mallocs, bytes, err := runPairsInProcess(tr, rep, cells, ref)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	layers, err := rollupProfiles([]string{path})
	if err != nil {
		return err
	}
	setLayers(rep, layers)
	rep.set("runtime.allocs_per_read", "count", mallocs/reads)
	rep.set("runtime.alloc_bytes_per_read", "bytes", bytes/reads)
	return replayStore(o, tr, rep, cells, cache, ref, 0)
}

// repeatSweeps calls sweep until the measuring time has passed, at
// least atLeast times per series, with reference passes between the
// sweeps. Untraced, every sweep goes into the
// first series. Traced, untraced sweeps alternate with sweeps that
// record spans, so the gap between the two series is the tracing
// overhead and slow drift of the host affects both alike. ready seeds
// the first series' set-up samples.
func repeatSweeps(o options, tr *tracer, ref *refClock, ready []float64, atLeast int, sweep func() (sweepOutcome, error)) (sweepSeries, sweepSeries, error) {
	untraced := sweepSeries{ready: ready}
	var traced sweepSeries
	start := time.Now()
	for k := 0; ; k++ {
		if err := ref.tick(); err != nil {
			return untraced, traced, err
		}
		on := o.trace && k%2 == 1
		tr.on = on
		out, err := sweep()
		if err != nil {
			return untraced, traced, err
		}
		if on {
			traced.add(out, ref.last())
		} else {
			untraced.add(out, ref.last())
		}
		enough := len(untraced.cps) >= atLeast && (!o.trace || len(traced.cps) >= atLeast)
		if enough && deadline(start, o.seconds) {
			return untraced, traced, nil
		}
	}
}

// runSweepWarm fills a cache with one cold sweep, then submits the same
// grid to fresh sweepd children (new state directories) over it: every
// cell is a store hit and nothing is simulated.
func runSweepWarm(o options, tr *tracer, rep *report) error {
	jobs := sweepGrid(o.seed)
	cells, err := gridCells(jobs)
	if err != nil {
		return err
	}
	cache, err := scratchDir(o, "cache")
	if err != nil {
		return err
	}
	state, err := scratchDir(o, "fill-state")
	if err != nil {
		return err
	}
	tr.on = false
	fill, err := sweepOnce(o, tr, rep, jobs, cache, state, nil)
	if err != nil {
		return err
	}
	rep.check(fill.executed == uint64(len(cells)), "fill sweep executed %d of %d cells", fill.executed, len(cells))
	cold := fill.rows
	if err := checkSampledCell(o, tr, rep, cells, cold); err != nil {
		return err
	}
	ready, err := setupTimes(o, cache)
	if err != nil {
		return err
	}
	n := 0
	untraced, traced, err := repeatSweeps(o, tr, &rep.ref, ready, 3, func() (sweepOutcome, error) {
		state, err := scratchDir(o, fmt.Sprintf("warm-state-%d", n))
		if err != nil {
			return sweepOutcome{}, err
		}
		n++
		defer os.RemoveAll(state)
		out, err := sweepOnce(o, tr, rep, jobs, cache, state, cold)
		if err != nil {
			return out, err
		}
		rep.check(out.executed == 0 && out.restored == uint64(len(cells)),
			"warm sweep executed %d, restored %d of %d cells", out.executed, out.restored, len(cells))
		return out, nil
	})
	if err != nil {
		return err
	}
	if !o.trace {
		untraced.setEndToEnd(rep)
		return nil
	}
	rep.set("trace.overhead_frac", "fraction", 1-median(traced.rate)/median(untraced.rate))
	traced.setSweepd(rep)
	untraced.speed.set(rep)
	setRowModel(rep, fill.header, cold)

	// Nothing is simulated on this workload, so the profile covers the
	// store read path it exercises instead.
	path := filepath.Join(o.work, "cpu.pprof")
	prof, err := startProfile(path)
	if err != nil {
		return err
	}
	err = replayStore(o, tr, rep, cells, cache, cold, 2)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	layers, err := rollupProfiles([]string{path})
	if err != nil {
		return err
	}
	setLayers(rep, layers)
	return nil
}

// newSystemTimes times core.NewSystem for every cell's shared-run
// machine and reports the median.
func newSystemTimes(tr *tracer, rep *report, cells []gridCell) error {
	var ts []float64
	for _, c := range cells {
		sp := tr.begin("core.NewSystem", 0)
		t := time.Now()
		_, err := core.NewSystem(c.cfg, c.spec)
		ts = append(ts, time.Since(t).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	rep.set("core.new_system_s", "s", median(ts))
	return nil
}

// runPairsInProcess runs every cell through core.RunPair on nproc
// goroutines, checks each row against sweepd's, and returns the
// shared-run demand reads with the allocator's count and byte deltas.
func runPairsInProcess(tr *tracer, rep *report, cells []gridCell, ref map[string]string) (float64, float64, float64, error) {
	scale, err := grid.Scale(sweepScale)
	if err != nil {
		return 0, 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("inprocess", 0)
	rows := make([]string, len(cells))
	reads := make([]float64, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := tr.begin("core.RunPair", root)
				res, err := core.RunPair(cells[i].cfg, cells[i].spec, scale)
				tr.end(sp)
				rows[i], reads[i], errs[i] = strings.Join(res.CSVRow(), ","), float64(res.DemandReads), err
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	tr.end(root)
	runtime.ReadMemStats(&ms1)
	var total float64
	for i, c := range cells {
		if errs[i] != nil {
			return 0, 0, 0, errs[i]
		}
		rep.op(rows[i] == ref[c.name], "in-process cell %s: row %q, sweepd %q", c.name, rows[i], ref[c.name])
		total += reads[i]
	}
	return total, float64(ms1.Mallocs - ms0.Mallocs), float64(ms1.TotalAlloc - ms0.TotalAlloc), nil
}

// replayStore times the durability layer on every cell key of the
// grid: a Get from the filled cache (which must hit and match sweepd's
// row), a Put of that result into a scratch store, and a lease
// TryAcquire and Release on a scratch lease directory. It replays the
// grid once, then again until seconds have passed; each replayed cell
// is one operation.
func replayStore(o options, tr *tracer, rep *report, cells []gridCell, cache string, ref map[string]string, seconds float64) error {
	st, err := store.Open(cache)
	if err != nil {
		return err
	}
	scratch, err := scratchDir(o, "replay")
	if err != nil {
		return err
	}
	dst, err := store.Open(filepath.Join(scratch, "store"))
	if err != nil {
		return err
	}
	lm, err := lease.NewManager(filepath.Join(scratch, "leases"), "perfbench", time.Minute)
	if err != nil {
		return err
	}
	var get, put, acq, rel, size []float64
	root := tr.begin("replay", 0)
	defer tr.end(root)
	start := time.Now()
	for pass := 0; pass == 0 || !deadline(start, seconds); pass++ {
		for _, c := range cells {
			replayCell(tr, rep, root, c, st, dst, lm, ref[c.name], &get, &put, &acq, &rel, &size)
		}
	}
	rep.set("store.get_s", "s", median(get))
	rep.set("store.put_s", "s", median(put))
	rep.set("store.entry_bytes", "bytes", meanOf(size))
	rep.set("lease.acquire_s", "s", median(acq))
	rep.set("lease.release_s", "s", median(rel))
	return nil
}

// replayCell replays one cell key and appends each call's seconds to
// the matching sample slice.
func replayCell(tr *tracer, rep *report, root int, c gridCell, st, dst *store.Store, lm *lease.Manager,
	want string, get, put, acq, rel, size *[]float64) {
	sp := tr.begin("store.Get", root)
	t := time.Now()
	res, hit := st.Get(c.key)
	*get = append(*get, time.Since(t).Seconds())
	tr.end(sp)
	if fi, err := os.Stat(st.ObjectPath(c.key)); err == nil {
		*size = append(*size, float64(fi.Size()))
	}

	sp = tr.begin("store.Put", root)
	t = time.Now()
	putErr := dst.Put(c.key, res)
	*put = append(*put, time.Since(t).Seconds())
	tr.end(sp)

	sp = tr.begin("lease.TryAcquire", root)
	t = time.Now()
	l, leaseErr := lm.TryAcquire(c.key.Hash())
	*acq = append(*acq, time.Since(t).Seconds())
	tr.end(sp)
	if leaseErr == nil {
		sp = tr.begin("lease.Release", root)
		t = time.Now()
		leaseErr = l.Release()
		*rel = append(*rel, time.Since(t).Seconds())
		tr.end(sp)
	}
	rep.op(hit && strings.Join(res.CSVRow(), ",") == want && putErr == nil && leaseErr == nil,
		"store replay %s: hit %v, row %q, put %v, lease %v", c.name, hit, res.CSVRow(), putErr, leaseErr)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// setRowModel reports the grid's simulated outcome from its rows: the
// mean of each model column and the hierarchy totals the rows carry.
func setRowModel(rep *report, header []string, rows map[string]string) {
	cols := map[string]int{}
	for _, name := range []string{"sum_ipc", "crit_latency", "crit_fast_frac", "writebacks", "merged_misses", "demand_reads"} {
		cols[name] = column(header, name)
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed summation order keeps the totals bit-identical
	tot := map[string]float64{}
	for _, k := range keys {
		f := strings.Split(rows[k], ",")
		for name, i := range cols {
			if i >= 0 && i < len(f) {
				v, _ := strconv.ParseFloat(f[i], 64)
				tot[name] += v
			}
		}
	}
	n := float64(len(rows))
	rep.set("model.sum_ipc", "ipc", tot["sum_ipc"]/n)
	rep.set("model.crit_latency_cyc", "cycles", tot["crit_latency"]/n)
	rep.set("model.crit_fast_frac", "fraction", tot["crit_fast_frac"]/n)
	rep.set("cache.writebacks", "count", tot["writebacks"])
	rep.set("cache.merged_frac", "fraction", tot["merged_misses"]/tot["demand_reads"])
}
