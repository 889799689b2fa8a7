package main

import (
	"strings"
	"testing"
)

// TestCorruptedRowCountsAsFailure pins that one differing field in one
// cell's results row fails exactly that cell's operation.
func TestCorruptedRowCountsAsFailure(t *testing.T) {
	job := jobSpec{Config: "rl", Benchmarks: []string{"mcf", "lbm"}}
	done := jobStatus{State: "done"}
	header := []string{"benchmark", "config", "demand_reads", "sum_ipc"}
	// results.csv rows lead with param, value and bench.
	row := func(s string) []string {
		f := strings.Split(s, ",")
		return append([]string{"", "", f[0]}, f...)
	}
	ref := map[string]string{"rl/mcf": "mcf,RL,1000,12.5", "rl/lbm": "lbm,RL,1000,9.25"}

	var clean tally
	_, reads := checkJob(&clean, job, done, header, [][]string{row("mcf,RL,1000,12.5"), row("lbm,RL,1000,9.25")}, ref)
	if clean.attempted != 2 || clean.failed != 0 || reads != 2000 {
		t.Fatalf("identical rows: %+v, reads %v", clean, reads)
	}

	var bad tally
	checkJob(&bad, job, done, header, [][]string{row("mcf,RL,1000,12.6"), row("lbm,RL,1000,9.25")}, ref)
	if bad.attempted != 2 || bad.failed != 1 {
		t.Fatalf("one corrupted row: %+v, want 1 of 2 failed", bad)
	}

	var missing tally
	checkJob(&missing, job, done, header, [][]string{row("mcf,RL,1000,12.5")}, ref)
	if missing.failed != 1 {
		t.Fatalf("one missing row: %+v, want 1 failed", missing)
	}

	var poisoned tally
	checkJob(&poisoned, job, jobStatus{State: "failed", Poisoned: 1}, header,
		[][]string{row("mcf,RL,1000,12.5")}, nil)
	if poisoned.failed != 2 {
		t.Fatalf("job with a poisoned cell: %+v, want both cells failed", poisoned)
	}
}
