package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// legacyField is the JSON name of the spec field that once asked for
// lane-parallel cells. Lane-parallel execution no longer exists, so the
// field is unknown to JobSpec.
const legacyField = `parallel`

// legacyParallelSpec is testSpec as an older sweepd or sweepctl wrote
// it when asked for lane-parallel cells: the normalized spec's JSON
// with legacyField set to true at the end. The ID is what the older
// server named the spec file: the hash of those same bytes.
func legacyParallelSpec(t *testing.T) (body []byte, id string) {
	t.Helper()
	b, err := json.Marshal(testSpec().normalize())
	if err != nil {
		t.Fatal(err)
	}
	body = append(b[:len(b)-1:len(b)-1], fmt.Sprintf(",%q:true}", legacyField)...)
	sum := sha256.Sum256(body)
	return body, hex.EncodeToString(sum[:])[:12]
}

// lockedBuffer is a log sink safe to write from the poll loop while
// the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSweepdLegacyParallelSpec: a spec carrying the removed legacyField
// still decodes, builds cells with exactly the store keys of the
// same spec without it, and — from a state-dir file or a POST — runs
// to completion over a cache filled by the plain spec without
// simulating a single cell. A polling server discovers the file once,
// although its name is not the ID the spec hashes to now.
func TestSweepdLegacyParallelSpec(t *testing.T) {
	body, legacyID := legacyParallelSpec(t)
	var legacy JobSpec
	if err := json.Unmarshal(body, &legacy); err != nil {
		t.Fatalf("legacy spec does not decode: %v", err)
	}
	plainCells, err := buildCells(testSpec().normalize())
	if err != nil {
		t.Fatal(err)
	}
	legacyCells, err := buildCells(legacy.normalize())
	if err != nil {
		t.Fatal(err)
	}
	if len(legacyCells) != len(plainCells) {
		t.Fatalf("legacy spec built %d cells, plain spec %d", len(legacyCells), len(plainCells))
	}
	for i := range plainCells {
		if legacyCells[i].key != plainCells[i].key {
			t.Errorf("cell %d: legacy store key %+v differs from plain %+v",
				i, legacyCells[i].key, plainCells[i].key)
		}
	}

	// Fill a cache with the plain spec.
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	cold := newHarness(t, cacheDir, filepath.Join(dir, "state-cold"), 2)
	st := cold.submit(t, testSpec())
	cold.waitDone(t, st.ID)
	wantCSV := cold.resultsCSV(t, st.ID)
	if got := cold.srv.executed.Load(); got != 4 {
		t.Fatalf("cold pass executed %d cells, want 4", got)
	}
	cold.close()

	// A state directory holding only the spec file an older server
	// checkpointed for the parallel job: the restart resumes it warm.
	stateDir := filepath.Join(dir, "state-warm")
	if err := os.MkdirAll(filepath.Join(stateDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "jobs", legacyID+".json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := newHarness(t, cacheDir, stateDir, 2)
	defer warm.srv.Close()
	fin := warm.waitDone(t, st.ID)
	if fin.State != "done" || fin.Executed != 0 || fin.Restored != 4 {
		t.Fatalf("resumed legacy job: state %s, %d executed / %d restored, want done, 0 / 4",
			fin.State, fin.Executed, fin.Restored)
	}
	if got := warm.resultsCSV(t, st.ID); got != wantCSV {
		t.Fatalf("legacy job CSV diverged:\nplain:\n%s\nlegacy:\n%s", wantCSV, got)
	}

	// A POST of the same bytes, as an older sweepctl sent them, joins
	// that job.
	resp, err := http.Post(warm.ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("legacy POST: %s: %s", resp.Status, reply)
	}
	var posted Status
	if err := json.Unmarshal(reply, &posted); err != nil {
		t.Fatalf("legacy POST response: %v\n%s", err, reply)
	}
	if posted.ID != st.ID {
		t.Fatalf("legacy POST made job %s, want the plain spec's %s", posted.ID, st.ID)
	}
	if got := warm.srv.executed.Load(); got != 0 {
		t.Fatalf("legacy job simulated %d cells over a warm cache, want 0", got)
	}

	// The same file dropped into a polling server's state directory is
	// discovered once, not on every poll.
	const poll = 10 * time.Millisecond
	pollDir := filepath.Join(dir, "state-poll")
	var log lockedBuffer
	srv, err := NewServer(Options{CacheDir: cacheDir, StateDir: pollDir, Workers: 2, Poll: poll, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	tmp := filepath.Join(pollDir, "jobs", ".legacy.tmp")
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(pollDir, "jobs", legacyID+".json")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); !strings.Contains(log.String(), "discovered job"); {
		if time.Now().After(deadline) {
			t.Fatalf("legacy spec file never discovered:\n%s", log.String())
		}
		time.Sleep(poll)
	}
	(&harness{srv: srv, ts: ts}).waitDone(t, st.ID)
	time.Sleep(10 * poll)
	if n := strings.Count(log.String(), "discovered job"); n != 1 {
		t.Fatalf("legacy spec file discovered %d times over 10+ polls, want once:\n%s", n, log.String())
	}
}
