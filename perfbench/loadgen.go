package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slot is one scheduled request of the open-loop generator. The whole
// schedule is fixed from the seed before the window starts.
type slot struct {
	Due   time.Duration // offset from the window start
	Heavy bool          // sent at the heavy rate (else light)
	Warm  bool          // repeats a body the daemon already holds
	File  int           // corpus file index
	Seeds []int64       // cold requests: the re-drawn seed axis
}

// loadPlan sizes the generator: a light phase then a heavy phase of
// equal length, each sending its count of requests at evenly spaced due
// times, with every coldEvery-th request cold and the rest warm.
type loadPlan struct {
	light, heavy int
	phase        time.Duration
	coldEvery    int
}

// buildSchedule lays out the two phases. Cold requests walk seeded
// permutations of the corpus files, so every cycle of len(seedCounts)
// cold requests sends each file exactly once with a freshly drawn seed
// axis of the file's own length; warm requests walk their own
// permutations. Equal seeds give equal schedules.
func buildSchedule(seed int64, seedCounts []int, plan loadPlan) []slot {
	rng := rand.New(rand.NewSource(seed))
	nFiles := len(seedCounts)
	var coldPerm, warmPerm []int
	next := func(perm *[]int) int {
		if len(*perm) == 0 {
			*perm = rng.Perm(nFiles)
		}
		f := (*perm)[0]
		*perm = (*perm)[1:]
		return f
	}
	var slots []slot
	i := 0
	for p, count := range []int{plan.light, plan.heavy} {
		base := time.Duration(p) * plan.phase
		for k := 0; k < count; k++ {
			s := slot{Due: base + plan.phase*time.Duration(k)/time.Duration(count), Heavy: p == 1}
			if i%plan.coldEvery == 0 {
				s.File = next(&coldPerm)
				s.Seeds = make([]int64, seedCounts[s.File])
				for j := range s.Seeds {
					s.Seeds[j] = 1 + rng.Int63n(1<<40)
				}
			} else {
				s.Warm = true
				s.File = next(&warmPerm)
			}
			slots = append(slots, s)
			i++
		}
	}
	return slots
}

// clock is the generator's time source; tests drive a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// outcome is what happened to one slot. Latency runs from the slot's due
// time, not its send time, so a stall also bills the requests queued
// behind it; Lag is how late the generator sent it.
type outcome struct {
	Sent    bool
	OK      bool
	Lag     time.Duration
	Latency time.Duration
	Done    time.Duration // completion offset from the window start
}

// runSchedule sends every slot from `workers` senders (the connection
// budget). A sender takes the next slot, waits for its due time, and
// sends it; when every sender is busy the next slot goes out late and
// its lateness counts in its latency. send reports success.
func runSchedule(ctx context.Context, clk clock, start time.Time, slots []slot, workers int, send func(ctx context.Context, i int) bool) []outcome {
	out := make([]outcome, len(slots))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(slots) || ctx.Err() != nil {
					return
				}
				due := start.Add(slots[i].Due)
				clk.SleepUntil(ctx, due)
				sent := clk.Now()
				ok := send(ctx, i)
				done := clk.Now()
				out[i] = outcome{Sent: true, OK: ok, Lag: sent.Sub(due), Latency: done.Sub(due), Done: done.Sub(start)}
			}
		}()
	}
	wg.Wait()
	return out
}

// backlog returns the largest number of requests due but not yet
// completed at any instant within [from, to), and the time-weighted mean
// backlog over the first and the second half of that interval. A mean
// that grows from the first half to the second means requests arrive
// faster than they complete: the rate is over capacity.
func backlog(slots []slot, outs []outcome, from, to time.Duration) (maxB int, first, second float64) {
	type ev struct {
		at    time.Duration
		delta int
	}
	var evs []ev
	for i, s := range slots {
		evs = append(evs, ev{s.Due, +1})
		if outs[i].Sent {
			evs = append(evs, ev{outs[i].Done, -1})
		}
	}
	// Completions sort before arrivals at equal instants.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	mid := from + (to-from)/2
	var area [2]float64
	// integrate adds cur × the part of [a, b) inside each half.
	integrate := func(cur int, a, b time.Duration) {
		for h, lim := range [2][2]time.Duration{{from, mid}, {mid, to}} {
			lo, hi := max(a, lim[0]), min(b, lim[1])
			if hi > lo {
				area[h] += float64(cur) * float64(hi-lo)
			}
		}
	}
	cur := 0
	prev := time.Duration(0)
	for _, e := range evs {
		integrate(cur, prev, e.at)
		prev = e.at
		cur += e.delta
		if e.at >= from && e.at < to && cur > maxB {
			maxB = cur
		}
	}
	integrate(cur, prev, to)
	half := float64(mid - from)
	if half <= 0 {
		return maxB, 0, 0
	}
	return maxB, area[0] / half, area[1] / half
}
