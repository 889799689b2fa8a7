package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/sim"
)

// sweepOrgs are the seven organizations of the sweep grid, built the
// way grid.Config builds them (that package imports this one).
func sweepOrgs(cores int) []SystemConfig {
	rlad := RL(cores)
	rlad.Placement = PlaceAdaptive
	rlad.Name = "RL-AD"
	return []SystemConfig{Baseline(cores), RL(cores), RD(cores), DL(cores), rlad,
		DRAMCached(cores), HMCMix(cores)}
}

// TestSweepOrganizationsGolden freezes what every sweep organization
// computes at quick scale, for libquantum and mcf: the pair's CSV row,
// a SHA-256 of each controller's DRAM command stream in the shared
// 8-core run, and that run's engine event count. The stream hashes pin
// every scheduling decision of every controller kind (shared command
// buses, close-page word channels, the DRAM-cache tiers, HMC) so a
// scheduler rework is checked against the decisions it replaced, not
// against itself. Run with -update only
// after an intentional change.
func TestSweepOrganizationsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, bench := range []string{"libquantum", "mcf"} {
		spec := mustSpec(t, bench)
		for _, cfg := range sweepOrgs(8) {
			id := cfg.Name + "/" + bench
			res, err := RunPair(cfg, spec, QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s row %s\n", id, strings.Join(res.CSVRow(), ","))

			sys, err := NewSystem(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			var hashes []func() []byte
			for gi, g := range sys.mem.Groups() {
				for ci, c := range g.Ctrls {
					h := sha256.New()
					n := 0
					c.CmdTrace = func(op byte, at sim.Cycle, rk, bk int, row int64) {
						fmt.Fprintf(h, "%c %d %d %d %d\n", op, at, rk, bk, row)
						n++
					}
					name := fmt.Sprintf("g%d.c%d", gi, ci)
					hashes = append(hashes, func() []byte {
						return fmt.Appendf(nil, "%s %s cmds=%d sha256=%x\n", id, name, n, h.Sum(nil))
					})
				}
			}
			sys.Run(QuickScale())
			for _, line := range hashes {
				buf.Write(line())
			}
			fmt.Fprintf(&buf, "%s events %d\n", id, sys.Eng.EventsFired())
		}
	}

	golden := filepath.Join("testdata", "sweep_orgs_quick.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", golden, i+1, g, w)
		}
	}
}
