package hetsim_test

import (
	"testing"

	"hetsim"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := hetsim.NewSystem(hetsim.RL(2), "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(hetsim.Scale{WarmupReads: 100, MeasureReads: 800, MaxCycles: 10_000_000})
	if res.DemandReads < 500 {
		t.Fatalf("reads = %d", res.DemandReads)
	}
	if res.SumIPC <= 0 || res.CritLatency <= 0 {
		t.Fatalf("results empty: %+v", res)
	}
	if res.Config != "RL" || res.Benchmark != "libquantum" {
		t.Fatalf("labels: %s/%s", res.Config, res.Benchmark)
	}
}

func TestPublicAPIUnknownBenchmark(t *testing.T) {
	if _, err := hetsim.NewSystem(hetsim.Baseline(2), "not-a-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := hetsim.RunPair(hetsim.Baseline(2), "nope", hetsim.TestScale()); err == nil {
		t.Fatal("RunPair accepted unknown benchmark")
	}
}

func TestPublicAPIBenchmarkList(t *testing.T) {
	all := hetsim.Benchmarks()
	if len(all) != 26 {
		t.Fatalf("benchmarks = %d, want 26", len(all))
	}
	for _, b := range hetsim.MemoryIntensiveBenchmarks() {
		found := false
		for _, a := range all {
			if a == b {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not in full list", b)
		}
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	for _, cfg := range []hetsim.Config{
		hetsim.Baseline(8), hetsim.HomogeneousLPDDR2(8), hetsim.HomogeneousRLDRAM3(8),
		hetsim.RD(8), hetsim.RL(8), hetsim.DL(8), hetsim.HMCHetero(8),
		hetsim.HMCMix(8), hetsim.DRAMCached(8),
		hetsim.PagePlaced(8, map[uint64]bool{0: true}),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		// Every preset spells its organization as a topology, and the
		// named topology of the same text parses back to it.
		spec, err := hetsim.ParseTopology(cfg.Topology.Canonical())
		if err != nil || spec.Canonical() != cfg.Topology.Canonical() {
			t.Errorf("%s: topology %q does not round-trip: %v", cfg.Name, cfg.Topology.Canonical(), err)
		}
	}
	if got := hetsim.PagePlaced(8, nil).Topology.Canonical(); got != "hot:rldram3x1+line:lpddr2x3" {
		t.Errorf("page placement topology = %q", got)
	}
	cfg := hetsim.RL(8)
	cfg.Placement = hetsim.PlaceAdaptive
	if cfg.Placement.String() != "adaptive" {
		t.Error("placement alias broken")
	}
}

func TestPublicAPIScales(t *testing.T) {
	if hetsim.TestScale().MeasureReads >= hetsim.BenchScale().MeasureReads {
		t.Error("test scale not smaller than bench scale")
	}
	if hetsim.PaperScale().MeasureReads != 2_000_000 {
		t.Error("paper scale must be 2M reads (§5)")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	r := hetsim.NewExperiments(hetsim.ExperimentOptions{
		Scale:      hetsim.Scale{WarmupReads: 100, MeasureReads: 600, MaxCycles: 10_000_000},
		Benchmarks: []string{"libquantum"},
		NCores:     2,
	})
	res, err := r.Run(hetsim.RL(0), "libquantum")
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}
