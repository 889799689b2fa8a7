package store_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/grid"
	"hetsim/internal/store"
	"hetsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden key files")

// TestRunKeyHashGolden freezes the content address and ConfigKey of a
// representative mcf pair run at quick scale for every named
// configuration at 8 cores, the two §4.2.4 ablation variants, a
// -topology override, and the §7.1 page-placement system. Every cached
// run is addressed by these hashes, so a change here orphans cache
// entries; run with -update only after an intentional key change.
func TestRunKeyHashGolden(t *testing.T) {
	type named struct {
		name string
		cfg  core.SystemConfig
	}
	var cfgs []named
	for _, n := range grid.ConfigNames() {
		cfg, err := grid.Config(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, named{n, cfg})
	}

	// The §4.2.4 ablation variants as internal/exp builds them.
	privBus := core.RL(8)
	privBus.Placement = core.PlaceOracle
	privBus.Name = "RL-OR-privbus"
	privBus.Topology = topology.CWF(dram.RLDRAM3, core.Channels, dram.LPDDR2, core.Channels, topology.BusPrivate, false)
	wide := core.RL(8)
	wide.Name = "RL-widerank"
	wide.Topology = topology.CWF(dram.RLDRAM3, 1, dram.LPDDR2, core.Channels, topology.BusDefault, true)
	cfgs = append(cfgs, named{"exp:cmdbus-private", privBus}, named{"exp:subrank-wide", wide})

	topo, err := grid.Config("rl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.ApplyTopology(&topo, "cwf-rl"); err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, named{"rl -topology cwf-rl", topo})

	hot := map[uint64]bool{}
	for p := uint64(0); p < 1024; p += 7 {
		hot[p] = true
	}
	cfgs = append(cfgs, named{"page-placement", core.PagePlaced(8, hot)})

	var buf bytes.Buffer
	for _, c := range cfgs {
		k := store.RunKey{Cfg: c.cfg.Key(), Bench: "mcf", Scale: core.QuickScale(), Pair: true}
		fmt.Fprintf(&buf, "%s hash=%s key=%+v\n", c.name, k.Hash(), k.Cfg)
	}

	golden := filepath.Join("testdata", "runkey_hashes.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
