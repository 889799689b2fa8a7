package core_test

import (
	"slices"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/grid"
	"hetsim/internal/workload"
)

// TestRefMemoSweepOrganizationsMatchRunPair: through one shared memo,
// every sweep organization's pair equals the unmemoized core.RunPair —
// CSV row, Throughput and ThroughputSelf — while each benchmark's
// baseline reference is simulated once.
func TestRefMemoSweepOrganizationsMatchRunPair(t *testing.T) {
	orgs := []string{"baseline", "rl", "rd", "dl", "rl-ad", "dram-cache", "hmc-mix"}
	benches := []string{"libquantum", "mcf"}
	scale := core.QuickScale()
	var memo core.RefMemo
	for _, bench := range benches {
		spec, err := workload.Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, org := range orgs {
			cfg, err := grid.Config(org, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.RunPair(cfg, spec, scale)
			if err != nil {
				t.Fatal(err)
			}
			got, err := memo.RunPair(cfg, spec, scale)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.CSVRow(), want.CSVRow()) ||
				got.Throughput != want.Throughput || got.ThroughputSelf != want.ThroughputSelf {
				t.Errorf("%s/%s: memoized pair %v, RunPair %v", org, bench, got.CSVRow(), want.CSVRow())
			}
		}
	}
	// Per benchmark: one baseline reference (which is also the baseline
	// organization's self reference) plus six self references.
	cells := uint64(len(orgs) * len(benches))
	want := core.RefStats{Executed: cells, Reused: cells}
	if st := memo.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
