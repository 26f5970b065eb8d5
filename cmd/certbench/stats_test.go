package main

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		p, want float64
		beyond  int
	}{
		{50, 3, 2},
		{80, 4, 1},
		{81, 5, 0},
		{100, 5, 0},
		{1, 1, 4},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty: %g, %d", v, beyond)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 199; i++ {
		xs = append(xs, float64(i))
	}
	// 199 samples: p95 is rank 190, nine samples beyond it.
	if s := pctString(xs, 95, "ms"); !strings.HasPrefix(s, "n/a (199 samples, 9 beyond") {
		t.Errorf("199 samples: %q", s)
	}
	xs = append(xs, 200)
	if s := pctString(xs, 95, "ms"); !strings.HasPrefix(s, "190 ms (200 samples, 10 beyond)") {
		t.Errorf("200 samples: %q", s)
	}
}

// TestOpenLoopCountsBacklog stalls one request of a paced schedule: every
// request queued behind the stall must carry the wait in its latency,
// measured from when it was due, not from when it was finally sent.
func TestOpenLoopCountsBacklog(t *testing.T) {
	const (
		n      = 12
		period = 20 * time.Millisecond
		stall  = 200 * time.Millisecond
	)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * period
	}
	samples := openLoop(dues, 1, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range samples {
		if s.done < s.sent || s.sent < s.due {
			t.Fatalf("request %d: due %v sent %v done %v", i, s.due, s.sent, s.done)
		}
	}
	// The stall ends at about 2·period+stall; request i, due at i·period,
	// waits at least that minus its due time.
	stallEnd := 2*period + stall
	for i := 3; i < n; i++ {
		behind := stallEnd - dues[i]
		if behind <= 0 {
			break
		}
		if got := samples[i].latency(); got < behind {
			t.Errorf("request %d: latency %v hides the backlog of %v", i, got, behind)
		}
		if samples[i].idle {
			t.Errorf("request %d was backlogged but is marked idle", i)
		}
	}
	if !samples[0].idle && !samples[1].idle {
		t.Error("no request before the stall waited for its due time")
	}
}
