package memctrl

import (
	"encoding/binary"
	"testing"

	"hetsim/internal/dram"
	"hetsim/internal/sim"
)

// checkBookkeeping recounts every bank list of both queues and fails t
// where the scheduler's summaries disagree: nHit must equal the number
// of queued requests addressed to the bank's open row, with the bank's
// hitMask bit set exactly when it is non-zero; oldestDemand
// must be the first non-prefetch request of the list, and the active
// set must list exactly the non-empty banks.
func checkBookkeeping(t *testing.T, c *Controller) {
	t.Helper()
	for qi, q := range []*reqQueue{&c.rdq, &c.wrq} {
		active := 0
		for bi := range q.banks {
			bq := &q.banks[bi]
			open := c.Ch.OpenRow(bi/c.geomBanks, bi%c.geomBanks)
			hits := 0
			var demand *Request
			for r := bq.head; r != nil; r = r.bankNext {
				if r.Coord.Row == open {
					hits++
				}
				if demand == nil && !r.Prefetch {
					demand = r
				}
			}
			masked := q.hitMask[bi>>6]>>uint(bi&63)&1 == 1
			if bq.nHit != hits || masked != (hits > 0) {
				t.Fatalf("cycle %d queue %d bank %d: nHit %d (mask %x), recount %d (open row %d)",
					c.Eng.Now(), qi, bi, bq.nHit, q.hitMask, hits, open)
			}
			if bq.oldestDemand != demand {
				t.Fatalf("cycle %d queue %d bank %d: oldestDemand %p, recount %p",
					c.Eng.Now(), qi, bi, bq.oldestDemand, demand)
			}
			if (bq.head != nil) != (bq.activePos >= 0) {
				t.Fatalf("cycle %d queue %d bank %d: activePos %d with head %p",
					c.Eng.Now(), qi, bi, bq.activePos, bq.head)
			}
			if bq.head != nil {
				active++
			}
		}
		if active != len(q.active) {
			t.Fatalf("cycle %d queue %d: %d non-empty banks, active set %d", c.Eng.Now(), qi, active, len(q.active))
		}
	}
}

// stepChecked runs eng to completion one event time at a time, checking
// c's bookkeeping after each, and fails if requests are left queued.
func stepChecked(t *testing.T, eng *sim.Engine, c *Controller, end sim.Cycle) {
	t.Helper()
	for {
		at, ok := eng.PeekNext()
		if !ok || at > end {
			break
		}
		eng.Step()
		checkBookkeeping(t, c)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d requests still pending at cycle %d", c.Pending(), end)
	}
}

// bookkeepingCases are the diff streams plus the policies they leave
// thin: a close-page DDR3 word channel (every CAS auto-precharges), a
// four-rank LPDDR2 channel kept busy across several refresh intervals
// with power-down off (refresh precharges open banks under load), and
// FCFS on LPDDR2.
func bookkeepingCases() []diffCase {
	return append(diffCases(),
		diffCase{
			name: "ddr3-word-close-page", dcfg: dram.DDR3WordConfig, ranks: 1, seed: 21,
			prof: stimProfile{n: 400, burstMean: 6, gapShort: 6, gapLong: 30_000, pLong: 0.1,
				pWrite: 0.3, pPrefetch: 0.2, rowSpan: 300, footprint: 1 << 20},
		},
		diffCase{
			name: "lpddr2-4rank-refresh-busy", dcfg: dram.LPDDR2Config, ranks: 4, seed: 22,
			tweak: func(c *Config) { c.SleepAfter = 0 },
			prof: stimProfile{n: 1500, burstMean: 6, gapShort: 30, gapLong: 1, pLong: 0,
				pWrite: 0.3, pPrefetch: 0.2, rowSpan: 600, footprint: 1 << 22},
		},
		diffCase{
			name: "lpddr2-fcfs", dcfg: dram.LPDDR2Config, ranks: 2, seed: 23,
			tweak: func(c *Config) { c.FCFS = true },
			prof: stimProfile{n: 400, burstMean: 5, gapShort: 8, gapLong: 20_000, pLong: 0.15,
				pWrite: 0.3, pPrefetch: 0.2, rowSpan: 400, footprint: 1 << 22},
		},
	)
}

// TestBookkeepingInvariants: after every event time of every stream,
// each bank's hit count and oldest-demand pointer equal a recount from
// its list.
func TestBookkeepingInvariants(t *testing.T) {
	for _, tc := range bookkeepingCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			stim, ccfg := tc.setup()
			eng := &sim.Engine{}
			rejects := 0
			c := replay(eng, tc.dcfg(), tc.ranks, ccfg, stim, &rejects)
			refreshes := 0
			c.CmdTrace = func(op byte, _ sim.Cycle, _, _ int, _ int64) {
				if op == 'F' {
					refreshes++
				}
			}
			stepChecked(t, eng, c, stim[len(stim)-1].at+4_000_000)
			if tc.name == "lpddr2-4rank-refresh-busy" && refreshes == 0 {
				t.Fatal("stream never refreshed")
			}
		})
	}
}

// FuzzBookkeeping drives a controller with an arbitrary enqueue stream
// (each 4-byte record: time gap, bank/row selector, flags) over a small
// row set, so hits, conflicts, prefetch promotion and write drains all
// occur, and checks the bookkeeping after every event time.
func FuzzBookkeeping(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 1, 1, 0, 3, 9, 2, 1, 0, 0, 3, 0})
	f.Add([]byte{0, 5, 1, 1, 0, 5, 2, 2, 0, 5, 1, 3, 200, 5, 0, 0, 0, 7, 3, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var stim []diffStim
		at := sim.Cycle(1)
		for i := 0; i+4 <= len(data); i += 4 {
			at += sim.Cycle(data[i]) * 4
			flags := data[i+3]
			stim = append(stim, diffStim{
				at:       at,
				addr:     uint64(data[i+1]&0x3f)*131 + uint64(data[i+2]&0x7)<<16,
				write:    flags&1 != 0,
				prefetch: flags&2 != 0,
			})
		}
		if len(stim) == 0 {
			return
		}
		dcfg := dram.DDR3Config()
		ccfg := DefaultConfig(dcfg.Kind)
		ccfg.PrefetchAge = 300
		ccfg.FCFS = data[0]&0x80 != 0
		eng := &sim.Engine{}
		rejects := 0
		c := replay(eng, dcfg, 2, ccfg, stim, &rejects)
		stepChecked(t, eng, c, at+4_000_000)
	})
}
