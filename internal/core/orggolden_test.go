package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/faults"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
)

// goldenHotPages is a fixed §7.1 hot-page set: every third page of the
// first 64 MB of each of the two cores' private address spaces (core c
// starts at byte c<<30, page = byte address / 4096).
func goldenHotPages() map[uint64]bool {
	hot := map[uint64]bool{}
	for p := uint64(0); p < 16384; p += 3 {
		hot[p] = true
		hot[1<<18+p] = true
	}
	return hot
}

// goldenOrganizations are the organizations TestOrganizationsGolden
// freezes: every preset, each §4.2.4 ablation, the line-policy and
// sleep variants, the placement, parity and fault paths that key off
// the split organization, and the §7.1 page-placement system.
func goldenOrganizations() []struct {
	name  string
	cfg   SystemConfig
	bench string
} {
	privBus := RL(2)
	privBus.Topology = topology.CWF(dram.RLDRAM3, Channels, dram.LPDDR2, Channels, topology.BusPrivate, false)
	wide := RL(2)
	wide.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, Channels, topology.BusDefault, true)
	closePage := RL(2)
	closePage.ClosePageLines = true
	deepSleep := RL(2)
	deepSleep.DeepSleepLP = true
	adaptive := RL(2)
	adaptive.Placement = PlaceAdaptive
	oracle := RL(2)
	oracle.Placement = PlaceOracle
	parity := RL(2)
	parity.CritParityErrorRate = 0.02
	faulty := RL(2)
	faulty.Faults.Crit.TransientBit = 0.05
	faulty.Faults.Seed = 5
	dimmDead := RL(2)
	dimmDead.Faults.Schedule = []faults.Event{
		{At: 40_000, Kind: faults.DIMMDead, Target: faults.Crit, Channel: -1, Chip: -1}}

	return []struct {
		name  string
		cfg   SystemConfig
		bench string
	}{
		{"baseline-ddr3", Baseline(2), "libquantum"},
		{"lpddr2-homog", HomogeneousLPDDR2(2), "libquantum"},
		{"rldram3-homog", HomogeneousRLDRAM3(2), "libquantum"},
		{"rl", RL(2), "libquantum"},
		{"rd", RD(2), "mcf"},
		{"dl", DL(2), "libquantum"},
		{"hmc-hetero", HMCHetero(2), "libquantum"},
		{"rl-private-crit-cmdbus", privBus, "libquantum"},
		{"rl-wide-rank", wide, "libquantum"},
		{"rl-close-page-lines", closePage, "libquantum"},
		{"rl-deep-sleep", deepSleep, "libquantum"},
		{"rl-adaptive", adaptive, "mcf"},
		{"rl-oracle", oracle, "libquantum"},
		{"rl-crit-parity", parity, "libquantum"},
		{"rl-crit-faults", faulty, "libquantum"},
		{"rl-dimm-dead", dimmDead, "libquantum"},
		{"page-placement", PagePlaced(2, goldenHotPages()), "libquantum"},
	}
}

// TestOrganizationsGolden freezes everything observable about each
// organization at a short scale: the summary Results, the count and
// SHA-256 of the fill trace, the SHA-256 of the epoch JSONL stream and
// the engine's event count. It pins the build path of every memory
// organization, so a change to how organizations are spelled or
// constructed is checked against the outputs it replaced. Each
// organization is a subtest checked against its own lines. Run with
// -update only after an intentional behaviour change.
func TestOrganizationsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "organizations.txt")
	want := map[string][]string{}
	if !*updateGolden {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = append(want[name], line)
		}
	}
	var all bytes.Buffer
	cases := goldenOrganizations()
	seen := map[string]bool{}
	ran := 0
	for _, tc := range cases {
		seen[tc.name] = true
		t.Run(tc.name, func(t *testing.T) {
			got := organizationLines(t, tc.name, tc.cfg, tc.bench)
			all.WriteString(strings.Join(got, "\n") + "\n")
			ran++
			if *updateGolden {
				return
			}
			if g, w := strings.Join(got, "\n"), strings.Join(want[tc.name], "\n"); g != w {
				t.Errorf("%s differs:\n got\n%s\n want\n%s", golden, g, w)
			}
		})
	}
	if *updateGolden {
		if ran != len(cases) {
			t.Fatalf("ran %d of %d organizations; -update needs them all (no subtest filter)", ran, len(cases))
		}
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s has lines for %s, which is no longer run", golden, name)
		}
	}
}

// organizationLines runs one organization and renders its golden lines.
func organizationLines(t *testing.T, name string, cfg SystemConfig, bench string) []string {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	traceH := sha256.New()
	recs := 0
	cfg.TraceFn = func(r trace.Record) {
		fmt.Fprintf(traceH, "%+v\n", r)
		recs++
	}
	sys, err := NewSystem(cfg, mustSpec(t, bench))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(RunScale{WarmupReads: 150, MeasureReads: 900,
		MaxCycles: 20_000_000, EpochInterval: 20_000})
	var epochs bytes.Buffer
	if res.Epochs != nil {
		if err := res.Epochs.WriteJSONL(&epochs, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	res.Epochs = nil
	return []string{
		fmt.Sprintf("%s results %+v", name, res),
		fmt.Sprintf("%s trace records=%d sha256=%x", name, recs, traceH.Sum(nil)),
		fmt.Sprintf("%s epochs sha256=%x", name, sha256.Sum256(epochs.Bytes())),
		fmt.Sprintf("%s events %d", name, sys.Eng.EventsFired()),
	}
}
