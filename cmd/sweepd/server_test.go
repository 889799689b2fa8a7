package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hetsim"
	"hetsim/internal/grid"
)

// testSpec is the canonical 4-cell grid used across the tests: four
// ROB sizes × one benchmark at test scale with epoch sampling on.
func testSpec() JobSpec {
	return JobSpec{
		Config:        "rl",
		Benchmarks:    []string{"libquantum"},
		Param:         "robsize",
		Values:        []string{"32", "48", "64", "96"},
		Scale:         "test",
		EpochInterval: 50_000,
	}
}

// harness bundles one server instance and its HTTP front end.
type harness struct {
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, cacheDir, stateDir string, workers int) *harness {
	t.Helper()
	srv, err := NewServer(Options{CacheDir: cacheDir, StateDir: stateDir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &harness{srv: srv, ts: ts}
}

// close simulates killing the server: no new cells start, in-flight
// cells drain, the HTTP front end goes away.
func (h *harness) close() {
	h.srv.Close()
	h.ts.Close()
}

func (h *harness) submit(t *testing.T, spec JobSpec) Status {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(h.ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return st
}

func (h *harness) status(t *testing.T, id string) Status {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/api/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls until the job leaves the running state.
func (h *harness) waitDone(t *testing.T, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := h.status(t, id)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *harness) resultsCSV(t *testing.T, id string) string {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/api/v1/sweeps/" + id + "/results.csv?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func (h *harness) epochs(t *testing.T, id string) string {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/api/v1/sweeps/" + id + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// storeObjects lists the cache's entry files, sorted.
func storeObjects(t *testing.T, cacheDir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(filepath.Join(cacheDir, "objects"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".run") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestSweepdSubmitIdempotent: resubmitting an identical (or merely
// reformatted) spec joins the existing job instead of creating a new
// one.
func TestSweepdSubmitIdempotent(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()

	st1 := h.submit(t, testSpec())
	same := testSpec()
	same.Config = " RL " // normalization must absorb case and spacing
	st2 := h.submit(t, same)
	if st1.ID != st2.ID {
		t.Fatalf("identical specs got different jobs: %s vs %s", st1.ID, st2.ID)
	}
	h.waitDone(t, st1.ID)
	if got := h.srv.executed.Load(); got != 4 {
		t.Fatalf("4 cells should execute exactly once each, got %d", got)
	}
}

// TestSweepdCompletesAndStreams runs one sweep end to end and checks
// the summary CSV and the per-epoch JSONL stream.
func TestSweepdCompletesAndStreams(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()

	st := h.submit(t, testSpec())
	if st.Total != 4 {
		t.Fatalf("want 4 cells, got %d", st.Total)
	}

	// Open the live stream while the grid is still running; it must
	// deliver every cell's epochs and terminate when the job does.
	stream := h.epochs(t, st.ID)

	fin := h.waitDone(t, st.ID)
	if fin.State != "done" || fin.Done != 4 || fin.Failed != 0 {
		t.Fatalf("bad final state: %+v", fin)
	}

	csvText := h.resultsCSV(t, st.ID)
	lines := strings.Split(strings.TrimSpace(csvText), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header + 4 rows, got %d lines:\n%s", len(lines), csvText)
	}
	if !strings.HasPrefix(lines[0], "param,value,bench,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	for i, v := range []string{"32", "48", "64", "96"} {
		if !strings.HasPrefix(lines[i+1], "robsize,"+v+",libquantum,") {
			t.Fatalf("row %d out of grid order: %s", i, lines[i+1])
		}
	}

	epochLines := strings.Split(strings.TrimSpace(stream), "\n")
	if len(epochLines) < 4 {
		t.Fatalf("stream carried %d lines, want at least one per cell", len(epochLines))
	}
	seen := map[string]bool{}
	for _, ln := range epochLines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		for _, k := range []string{"job", "bench", "param", "value", "cycle"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("line missing %q: %s", k, ln)
			}
		}
		if rec["job"] != st.ID || rec["bench"] != "libquantum" || rec["param"] != "robsize" {
			t.Fatalf("wrong cell identity: %s", ln)
		}
		seen[rec["value"].(string)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("stream covered %d of 4 grid values: %v", len(seen), seen)
	}
}

// TestSweepdWarmResubmission: a restarted server resumes the
// checkpointed job purely from the store — zero simulator runs — and
// serves a byte-identical summary CSV.
func TestSweepdWarmResubmission(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")

	h1 := newHarness(t, cacheDir, stateDir, 2)
	st := h1.submit(t, testSpec())
	h1.waitDone(t, st.ID)
	csv1 := h1.resultsCSV(t, st.ID)
	if got := h1.srv.executed.Load(); got != 4 {
		t.Fatalf("cold pass should execute 4 cells, got %d", got)
	}
	h1.close()

	// Restart over the same directories: the spec file brings the job
	// back, the store supplies every cell.
	h2 := newHarness(t, cacheDir, stateDir, 4)
	defer h2.srv.Close()
	fin := h2.waitDone(t, st.ID)
	if fin.State != "done" {
		t.Fatalf("resumed job did not finish: %+v", fin)
	}
	if fin.Executed != 0 || fin.Restored != 4 {
		t.Fatalf("warm resume should be 0 executed / 4 restored, got %d / %d",
			fin.Executed, fin.Restored)
	}
	if csv2 := h2.resultsCSV(t, st.ID); csv2 != csv1 {
		t.Fatalf("warm CSV diverged:\ncold:\n%s\nwarm:\n%s", csv1, csv2)
	}

	// An explicit resubmission of the same grid is also free.
	h2.submit(t, testSpec())
	if got := h2.srv.executed.Load(); got != 0 {
		t.Fatalf("resubmission ran %d simulations, want 0", got)
	}
}

// TestSweepdResumeRunsOnlyUnfinished reconstructs the exact on-disk
// state a mid-grid kill leaves behind — the job's spec file plus a
// subset of store entries — and checks that the restarted server
// re-runs only the missing cells.
func TestSweepdResumeRunsOnlyUnfinished(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")

	h1 := newHarness(t, cacheDir, stateDir, 2)
	st := h1.submit(t, testSpec())
	h1.waitDone(t, st.ID)
	csv1 := h1.resultsCSV(t, st.ID)
	h1.close()

	// "Kill" aftermath: two of the four cells never made it to disk.
	objs := storeObjects(t, cacheDir)
	if len(objs) != 4 {
		t.Fatalf("want 4 store objects, got %d", len(objs))
	}
	for _, p := range objs[:2] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	h2 := newHarness(t, cacheDir, stateDir, 2)
	defer h2.srv.Close()
	fin := h2.waitDone(t, st.ID)
	if fin.State != "done" {
		t.Fatalf("resumed job did not finish: %+v", fin)
	}
	if fin.Executed != 2 || fin.Restored != 2 {
		t.Fatalf("resume should re-run exactly the 2 missing cells, got %d executed / %d restored",
			fin.Executed, fin.Restored)
	}
	if csv2 := h2.resultsCSV(t, st.ID); csv2 != csv1 {
		t.Fatalf("resumed CSV diverged:\nbefore:\n%s\nafter:\n%s", csv1, csv2)
	}
}

// TestSweepdKillAndResume kills a live half-finished server (queued
// cells fail fast, in-flight cells drain) and restarts it: the grid
// must complete with the dead server's finished cells restored from
// the store and only the remainder simulated.
func TestSweepdKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume integration test skipped in -short mode")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	stateDir := filepath.Join(dir, "state")

	// Serial workers so the kill lands while later cells are queued.
	h1 := newHarness(t, cacheDir, stateDir, 1)
	st := h1.submit(t, testSpec())
	deadline := time.Now().Add(2 * time.Minute)
	for h1.status(t, st.ID).Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell finished before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	h1.close()
	mid := h1.srv.status(h1.srv.jobs[st.ID])
	if mid.Done == 0 {
		t.Fatalf("kill drained to zero finished cells: %+v", mid)
	}
	finished := uint64(mid.Done)
	t.Logf("killed server after %d/%d cells (executed %d)", mid.Done, mid.Total, mid.Executed)

	h2 := newHarness(t, cacheDir, stateDir, 2)
	defer h2.srv.Close()
	fin := h2.waitDone(t, st.ID)
	if fin.State != "done" || fin.Done != fin.Total {
		t.Fatalf("resumed job did not finish: %+v", fin)
	}
	if fin.Restored != finished {
		t.Fatalf("restored %d cells, want the %d the dead server finished", fin.Restored, finished)
	}
	if want := uint64(fin.Total) - finished; fin.Executed != want {
		t.Fatalf("executed %d cells, want only the %d unfinished ones", fin.Executed, want)
	}
}

// TestSweepdTopologyJob runs a declarative-topology job end to end:
// the spec's topology overrides the config's organization, the grid
// expands and completes, and the folded config name reaches the CSV.
func TestSweepdTopologyJob(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()

	st := h.submit(t, JobSpec{
		Config:     "baseline",
		Topology:   "dram-cache",
		Benchmarks: []string{"libquantum", "mcf"},
		Scale:      "test",
	})
	st = h.waitDone(t, st.ID)
	if st.State != "done" || st.Done != 2 {
		t.Fatalf("topology job did not finish: %+v", st)
	}
	csv := h.resultsCSV(t, st.ID)
	if !strings.Contains(csv, "topology=cache-tier:rldram3x1:cap=64+far-tier:lpddr2x4") {
		t.Fatalf("results CSV missing folded topology name:\n%s", csv)
	}
}

// TestSweepdBadSpecs pins the submit-side validation.
func TestSweepdBadSpecs(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 1)
	defer h.srv.Close()

	bad := []JobSpec{
		{Config: "warp9", Benchmarks: []string{"mcf"}},
		{Config: "rl"},
		{Config: "rl", Benchmarks: []string{"no-such-bench"}},
		{Config: "rl", Benchmarks: []string{"mcf"}, Param: "robsize"},
		{Config: "rl", Benchmarks: []string{"mcf"}, Values: []string{"32"}},
		{Config: "rl", Benchmarks: []string{"mcf"}, Param: "warp", Values: []string{"1"}},
		{Config: "rl", Benchmarks: []string{"mcf"}, Scale: "huge"},
		{Config: "rl", Benchmarks: []string{"mcf"}, Topology: "no-such-topology"},
		{Config: "rl", Benchmarks: []string{"mcf"}, Topology: "crit:ddr5x4+line:lpddr2x4"},
	}
	for i, spec := range bad {
		b, _ := json.Marshal(spec)
		resp, err := http.Post(h.ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d accepted: %s", i, resp.Status)
		}
	}
	if resp, err := http.Get(h.ts.URL + "/api/v1/sweeps/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job id: got %s, want 404", resp.Status)
		}
	}
}

// TestSweepdPairCellsShareReferences: pair cells of one benchmark under
// two organizations, in two jobs, simulate the baseline reference once
// — the status JSON counts it — and rows stay those of hetsim.RunPair.
func TestSweepdPairCellsShareReferences(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, filepath.Join(dir, "cache"), filepath.Join(dir, "state"), 2)
	defer h.srv.Close()
	var fin Status
	for _, org := range []string{"baseline", "rl"} {
		st := h.submit(t, JobSpec{Config: org, Benchmarks: []string{"libquantum"}, Scale: "quick", Pair: true})
		if fin = h.waitDone(t, st.ID); fin.State != "done" {
			t.Fatalf("%s job: %+v", org, fin)
		}
		cfg, err := grid.Config(org, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hetsim.RunPair(cfg, "libquantum", hetsim.QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		if got := h.resultsCSV(t, st.ID); !strings.Contains(got, strings.Join(want.CSVRow(), ",")) {
			t.Fatalf("%s row differs from RunPair:\n%s\nwant %v", org, got, want.CSVRow())
		}
	}
	// baseline: its base reference runs, its self reference is the same
	// run; rl: base reference reused, self reference runs.
	if fin.RefsExecuted != 2 || fin.RefsReused != 2 {
		t.Fatalf("refs %d executed / %d reused, want 2 / 2", fin.RefsExecuted, fin.RefsReused)
	}
}
