package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// manifest identifies the host, toolchain and code a run measured, so
// a comparison can refuse to mix hosts or revisions.
type manifest struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"git_revision"` // "" outside a git checkout
	Dirty      bool    `json:"git_dirty"`
	SourceSHA  string  `json:"source_sha256"` // digest of every .go and go.mod file
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// Exact lists the per-layer metrics that are counts of simulated or
	// host work and repeat exactly for a given seed and code.
	Exact []string `json:"exact"`
	// RefCPUS is the median CPU seconds of the run's reference passes
	// (ref.go). It moves only with the host's speed, so it separates
	// host drift from code changes when two sets of runs are compared.
	RefCPUS float64 `json:"host_ref_cpu_s"`
}

// exactMetrics are the per-layer counts that repeat exactly across
// repetitions and runs of the same seed and code.
var exactMetrics = []string{
	"memctrl.reads_queued", "memctrl.row_hit_frac", "memctrl.drains", "memctrl.queue_lat_cyc",
	"dram.acts_per_read", "dram.refreshes", "dram.data_busy_frac",
	"sim.events_per_read", "cpu.retired_per_read", "cpu.dep_stalls", "cpu.retry_stalls",
	"cache.merged_frac", "cache.prefetch_fills", "cache.writebacks", "cache.wb_overflow",
	"store.entry_bytes", "sweepd.executed", "sweepd.restored", "sweepd.restored_frac",
	"model.sum_ipc", "model.crit_latency_cyc", "model.crit_fast_frac",
}

func newManifest(o options) manifest {
	host, _ := os.Hostname()
	m := manifest{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, Exact: exactMetrics,
		SourceSHA: sourceDigest("."),
	}
	// Ask git only when the working directory is the top of a checkout,
	// so nothing above it is read.
	if fi, err := os.Stat(".git"); err == nil && fi.IsDir() {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Revision = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return m
}

// sourceDigest hashes the path and content of every Go source and
// go.mod file under root, skipping hidden directories, so a run made
// outside git still names the code it measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
