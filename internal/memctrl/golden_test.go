package memctrl

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the frozen command-trace goldens")

// TestCommandTraceGolden pins the scheduler's decisions. The per-cycle
// reference in TestTickSkipDifferential runs the same issueFrom scan as
// the skipping side, so it cannot catch a change to the scan itself;
// these files can. Each diff case's full command stream (opcode, cycle,
// rank, bank, row) in tick-skipping mode is compared line for line
// with testdata/cmdtrace_<case>.txt, whose last line is the engine's
// event count, so a change to the tick schedule fails here too. Run
// with -update only after an intentional scheduling change.
func TestCommandTraceGolden(t *testing.T) {
	for _, tc := range diffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			stim, ccfg := tc.setup()
			run := runDiffSide(t, tc.dcfg(), tc.ranks, ccfg, stim, false)
			var buf bytes.Buffer
			for _, c := range run.trace {
				fmt.Fprintf(&buf, "%c %d %d %d %d\n", c.op, c.at, c.rk, c.bk, c.row)
			}
			fmt.Fprintf(&buf, "events %d\n", run.events)

			golden := filepath.Join("testdata", "cmdtrace_"+tc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d commands, %d events)", golden, len(run.trace), run.events)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				reportFirstDiff(t, golden, buf.Bytes(), want)
			}
		})
	}
}

// reportFirstDiff fails t at the first line where got and want differ.
func reportFirstDiff(t *testing.T, golden string, got, want []byte) {
	t.Helper()
	gs, ws := bufio.NewScanner(bytes.NewReader(got)), bufio.NewScanner(bytes.NewReader(want))
	for line := 1; ; line++ {
		gok, wok := gs.Scan(), ws.Scan()
		if !gok || !wok || gs.Text() != ws.Text() {
			t.Fatalf("%s diverged at line %d: got %q, want %q", golden, line, gs.Text(), ws.Text())
		}
	}
}
