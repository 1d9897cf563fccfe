package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"time"
)

// The end-to-end timings count host time: wall-clock time minus the
// time the hypervisor ran other guests on this machine's CPUs, which
// Linux reports as steal in /proc/stat. On a shared virtual machine
// steal comes in bursts of tens of percent lasting minutes; left in, it
// would move every timing by more than any bound a change could be
// held to. Where /proc/stat has no steal column, host time is wall time.

// clockTicks is USER_HZ, the unit of /proc/stat's counters on Linux.
const clockTicks = 100

// stolen returns the steal time accumulated since boot, divided over
// the CPUs: the wall-clock time a thread busy on every CPU lost.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / clockTicks) / time.Duration(runtime.NumCPU())
}

// stamp is a point in host time.
type stamp struct {
	wall  time.Time
	steal time.Duration
}

func hostNow() stamp { return stamp{wall: time.Now(), steal: stolen()} }

// to returns the host time from s to later, never more than the wall
// time and never negative.
func (s stamp) to(later stamp) time.Duration {
	d := later.wall.Sub(s.wall) - (later.steal - s.steal)
	return max(d, 0)
}

// since returns the host time from s to now.
func (s stamp) since() time.Duration { return s.to(hostNow()) }
