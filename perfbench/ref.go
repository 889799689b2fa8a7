package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The reference pass is the benchmark's yardstick for how fast the
// host runs at the moment. On a shared host the same code takes very
// different CPU time from one quarter of an hour to the next, because
// other tenants contend for the memory hierarchy. The pass is a fixed
// piece of code that shares nothing with hetsim and must never change:
// a pointer chase with a data-dependent branch over refBytes of
// 64-byte nodes linked in one random cycle, about the resident size of
// one simulated machine. It slows down with the simulator when the host
// does, so speed is reported per reference pass (see README.md).

const (
	refBytes = 12 << 20
	refSteps = 1_500_000
	// refEvery is the least time between two reference passes.
	refEvery = time.Second
)

// refNode is one 64-byte node of the reference pass.
type refNode struct {
	next    uint32
	a, b, c uint64
	pad     [4]uint64
}

// refPass runs the reference pass in this process and returns the CPU
// seconds of the chase alone, without building the nodes.
func refPass() float64 {
	n := refBytes / 64
	nodes := make([]refNode, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i, p := range perm {
		nodes[p].next = uint32(perm[(i+1)%n])
	}
	t0 := cpuSeconds()
	i := uint32(0)
	var acc uint64
	for k := uint64(0); k < refSteps; k++ {
		nd := &nodes[i]
		nd.a += k
		if nd.a&3 == 0 {
			nd.b ^= nd.a
		} else {
			nd.c += nd.b >> 3
		}
		acc += nd.c
		i = nd.next
	}
	secs := cpuSeconds() - t0
	refSink += acc
	return secs
}

// refSink keeps the reference pass's result live.
var refSink uint64

// refClock takes reference passes during a run, each in a child
// process so that neither its memory nor its CPU time counts towards
// the benchmark process's own.
type refClock struct {
	at    time.Time // when the latest pass ended
	times []float64
}

// tick runs a pass when none has run yet or refEvery has passed since
// the last one. Call it between repetitions, never inside a timed one.
func (c *refClock) tick() error {
	if len(c.times) > 0 && time.Since(c.at) < refEvery {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(self, "-ref-pass").Output()
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || secs <= 0 {
		return fmt.Errorf("reference pass printed %q", out)
	}
	c.times = append(c.times, secs)
	c.at = time.Now()
	return nil
}

// seconds is the median CPU seconds of the run's reference passes.
func (c *refClock) seconds() float64 { return median(c.times) }

// last is the CPU seconds of the latest reference pass.
func (c *refClock) last() float64 { return c.times[len(c.times)-1] }
