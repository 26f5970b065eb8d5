package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported: fewer, and the "percentile" is one or two slow outliers.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100): the
// smallest sample with at least p% of the samples at or below it. beyond
// counts the samples ranked above it; a tail percentile with fewer than
// minBeyond of them is reported as n/a (see pctString).
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// pctString formats a tail percentile, or n/a with the sample count when
// too few samples lie beyond it.
func pctString(xs []float64, p float64, unit string) string {
	v, beyond := percentile(xs, p)
	if beyond < minBeyond {
		return fmt.Sprintf("n/a (%d samples, %d beyond p%g)", len(xs), beyond, p)
	}
	return fmt.Sprintf("%.4g %s (%d samples, %d beyond)", v, unit, len(xs), beyond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one open-loop request, as offsets from the start of the run.
type sample struct {
	due, sent, done time.Duration
	// idle is true when a caller was free before the due time and slept
	// until it; sent−due is then the generator's own lateness, not backlog.
	idle bool
	err  error
}

// latency is the time from when the request was due to its completion:
// waiting behind a stalled request counts (no coordinated omission).
func (s sample) latency() time.Duration { return s.done - s.due }

// wait is the time from due to send: backlog plus generator lateness.
func (s sample) wait() time.Duration { return s.sent - s.due }

// openLoop issues request i at dues[i] (offsets from now, ascending) on at
// most callers concurrent callers, whatever the responses take: a caller
// that finishes late takes the next due request at once, so a stall delays
// every request queued behind it and the delay is measured from each
// request's due time. It returns when every request has completed.
func openLoop(dues []time.Duration, callers int, do func(i int) error) []sample {
	out := make([]sample, len(dues))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				s := sample{due: dues[i]}
				if d := time.Until(start.Add(dues[i])); d > 0 {
					s.idle = true
					time.Sleep(d)
				}
				s.sent = time.Since(start)
				s.err = do(i)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
