package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 when xs is
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssWindow is the length of one rssWatch window.
const rssWindow = 500 * time.Millisecond

// rssWatch samples the process's peak resident set size while a pass
// runs, one window at a time: at the end of each window it reads the
// peak (VmHWM) and resets it to the current size. The peak of a whole
// run moves by a fifth from run to run with where the garbage collector
// happens to run relative to a burst of allocation; the median of the
// window peaks does not.
type rssWatch struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	reset bool // false when the peak cannot be reset
}

// watchRSS resets the peak and starts the windows.
func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{}), reset: resetPeakRSS()}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.peaks = append(w.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return w
}

// finish closes the last window and returns the median window peak in
// MiB, or the process's peak where it cannot be reset.
func (w *rssWatch) finish() float64 {
	close(w.stop)
	<-w.done
	if !w.reset {
		return peakRSSMB()
	}
	return median(append(w.peaks, peakRSSMB()))
}

// resetPeakRSS sets the process's VmHWM to its current resident set
// size (Linux's clear_refs value 5) and reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB
// from /proc/self/status; 0 when the file is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
