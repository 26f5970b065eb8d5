package main

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// digest fingerprints a generated graph.
func (s graphSpec) digest() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.family))
	h.Write(s.edgeList())
	return h.Sum64()
}

// workloadInputs is everything a seed determines: every generated graph
// and the service-mix schedule.
func workloadInputs(t *testing.T, seed int64) (digests []uint64, sched []request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	digests = append(digests, intervalGraph(rng, 2000, 2).digest())
	rng = rand.New(rand.NewSource(seed))
	slots := serviceSlots(rng, 128)
	for _, s := range slots {
		digests = append(digests, s.spec.digest())
	}
	return digests, schedule(rng, slots, 16, 20)
}

func TestInputsFollowTheSeed(t *testing.T) {
	d1, s1 := workloadInputs(t, 7)
	d2, s2 := workloadInputs(t, 7)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed generated different inputs")
	}
	d3, s3 := workloadInputs(t, 8)
	for i := range d1 {
		// The ladders (the last two slots) have a seeded length only.
		if d1[i] == d3[i] && i < len(d1)-2 {
			t.Errorf("graph %d is the same under seeds 7 and 8", i)
		}
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 7 and 8 generated the same schedule")
	}
}

func TestGeneratedGraphsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := []graphSpec{intervalGraph(rng, 500, 3), caterpillar(rng, 500, 1), caterpillar(rng, 500, 2), ladder(50)}
	for _, s := range specs {
		g, err := s.ingest()
		if err != nil {
			t.Fatalf("%s: %v", s.family, err)
		}
		if g.N() != s.n || g.M() != len(s.edges) {
			t.Errorf("%s: ingested n=%d m=%d, generated n=%d m=%d", s.family, g.N(), g.M(), s.n, len(s.edges))
		}
		cfg, err := s.config()
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.G.Connected() {
			t.Errorf("%s is not connected", s.family)
		}
	}
}

func TestScheduleMixAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	slots := serviceSlots(rng, 64)
	sched := schedule(rng, slots, 10, 20) // 200 requests: ten whole decks
	if len(sched) != 200 {
		t.Fatalf("%d requests, want 200", len(sched))
	}
	var counts [numRoutes]int
	tickets := make([]int, len(slots))
	removed := map[[2]int]bool{}
	for i, r := range sched {
		counts[r.route]++
		if i > 0 && r.due < sched[i-1].due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if r.ticket != tickets[r.slot] {
			t.Fatalf("request %d has ticket %d on slot %d, want %d", i, r.ticket, r.slot, tickets[r.slot])
		}
		tickets[r.slot]++
		if r.route == routePatch {
			if !isLadder(slots[r.slot]) {
				t.Fatalf("PATCH %d targets a %s", i, slots[r.slot].spec.family)
			}
			k := [2]int{r.slot, r.rung}
			if r.remove == removed[k] {
				t.Fatalf("PATCH %d toggles rung %d the wrong way", i, r.rung)
			}
			removed[k] = r.remove
		} else if r.route != routeProve && isLadder(slots[r.slot]) && r.set != 0 {
			t.Fatalf("request %d reads set %d of a ladder, which PATCH only keeps set 0 of", i, r.set)
		}
	}
	for r, k := range mixDeck {
		if counts[r] != 10*k {
			t.Errorf("%s: %d requests, want %d", route(r), counts[r], 10*k)
		}
	}
}
