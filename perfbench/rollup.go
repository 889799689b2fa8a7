package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

const internalPrefix = "hetsim/internal/"

// rollupTraces reads the text of `go tool pprof -traces` and returns
// the sampled seconds per layer: each sample goes to the innermost
// (first printed) hetsim/internal/<pkg> frame of its stack, and a
// sample with no such frame goes to "runtime".
func rollupTraces(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false  // past the first separator
	var value float64 // current sample's seconds
	layer := ""       // current sample's layer, "" until a frame matches
	started := false  // the current block's value line was read
	flush := func() {
		if started {
			if layer == "" {
				layer = "runtime"
			}
			out[layer] += value
		}
		started, layer, value = false, "", 0
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if !started {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("rollup: malformed sample line %q", line)
			}
			v, err := parseSeconds(f[0])
			if err != nil {
				return nil, err
			}
			value, started = v, true
			frame = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0]))
		}
		if layer == "" {
			layer = layerOf(frame)
		}
	}
	flush()
	return out, sc.Err()
}

// layerOf names the hetsim/internal package a frame belongs to, or ""
// for any other frame.
func layerOf(frame string) string {
	if !strings.HasPrefix(frame, internalPrefix) {
		return ""
	}
	rest := frame[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return ""
}

// parseSeconds reads one pprof time label such as "10ms" or "1.20s".
func parseSeconds(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		// Longer suffixes first: "mins" also ends in "ns".
		{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"hr", 3600},
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
	}
	if s == "0" {
		return 0, nil
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("rollup: sample value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("rollup: sample value %q has no time unit", s)
}

// profiler is one CPU profile being written to a scratch file.
type profiler struct{ f *os.File }

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f: f}, nil
}

// stop ends the profile and closes its file.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// rollupProfiles merges the profile files through `go tool pprof
// -traces` and rolls the samples up by layer.
func rollupProfiles(paths []string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return rollupTraces(bytes.NewReader(text))
}

// setLayers reports a rollup as <pkg>.self_s for every layer package,
// internal.other_s, runtime.other_s and profile.total_s.
func setLayers(rep *report, layers map[string]float64) {
	known := map[string]bool{"runtime": true}
	for _, p := range layerPkgs {
		known[p] = true
		rep.set(p+".self_s", "s", layers[p])
	}
	var other, total float64
	for p, v := range layers {
		total += v
		if !known[p] {
			other += v
		}
	}
	rep.set("internal.other_s", "s", other)
	rep.set("runtime.other_s", "s", layers["runtime"])
	rep.set("profile.total_s", "s", total)
}
