package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestRollupTracesFixture rolls up captured `go tool pprof -traces`
// text: each sample goes to its innermost hetsim/internal frame, even
// when a math or runtime frame sits inside it, and a stack with no
// such frame goes to runtime.
func TestRollupTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := rollupTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime": 0.01, // runtime.casgstatus with no internal frame
		"dram":    0.01,
		"sim":     0.01, // math.archLog under sim.(*RNG).Geometric
		"memctrl": 0.02,
		"cache":   0.01, // runtime.memhash64 under cache.(*MSHR).Free
		"core":    0.01,
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestParseSeconds(t *testing.T) {
	for s, want := range map[string]float64{
		"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "2mins": 120, "0": 0, "40ns": 40e-9,
	} {
		got, err := parseSeconds(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"10", "fast", "1.2.3s"} {
		if _, err := parseSeconds(s); err == nil {
			t.Errorf("parseSeconds(%q) accepted", s)
		}
	}
}

func TestRollupRejectsMalformedSample(t *testing.T) {
	text := "File: x\n-----------+-------\n      10ms\n"
	if _, err := rollupTraces(strings.NewReader(text)); err == nil {
		t.Fatal("sample line without a frame accepted")
	}
}
