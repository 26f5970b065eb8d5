package lanes

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/interval"
)

func TestBoundFunctions(t *testing.T) {
	cases := []struct {
		k       int
		f, g, h int64
	}{
		{1, 1, 0, 0},
		{2, 4, 6, 9},
		{3, 18, 32, 49},
		{4, 110, 178, 287},
	}
	for _, tc := range cases {
		if F(tc.k) != tc.f {
			t.Errorf("F(%d) = %d, want %d", tc.k, F(tc.k), tc.f)
		}
		if G(tc.k) != tc.g {
			t.Errorf("G(%d) = %d, want %d", tc.k, G(tc.k), tc.g)
		}
		if H(tc.k) != tc.h {
			t.Errorf("H(%d) = %d, want %d", tc.k, H(tc.k), tc.h)
		}
	}
}

// pathRepresentation gives P_n its natural width-2 representation.
func pathRepresentation(n int) (*graph.Graph, *interval.Representation) {
	g := graph.PathGraph(n)
	r := interval.NewRepresentation(n)
	for v := 0; v < n; v++ {
		r.Ivs[v] = interval.Interval{L: v, R: v + 1}
	}
	return g, r
}

func TestGreedyOnPath(t *testing.T) {
	g, r := pathRepresentation(7)
	p := Greedy(r)
	if err := p.Validate(r); err != nil {
		t.Fatalf("greedy partition invalid: %v", err)
	}
	if p.K() > r.Width() {
		t.Fatalf("greedy lanes %d exceed width %d", p.K(), r.Width())
	}
	c := Complete(g, p, false)
	te, err := Embed(g, c, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := te.Emb.Validate(g, c); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionValidateRejects(t *testing.T) {
	_, r := pathRepresentation(4)
	// Overlapping consecutive intervals in one lane.
	bad := &Partition{Lanes: [][]graph.Vertex{{0, 1}, {2}, {3}}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("overlapping lane accepted")
	}
	// Missing vertex.
	bad = &Partition{Lanes: [][]graph.Vertex{{0}, {2}, {3}}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("incomplete partition accepted")
	}
	// Duplicate vertex.
	bad = &Partition{Lanes: [][]graph.Vertex{{0}, {0}, {1}, {2}, {3}}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	// Empty lane.
	bad = &Partition{Lanes: [][]graph.Vertex{{0}, {}, {1}, {2}, {3}}}
	if err := bad.Validate(r); err == nil {
		t.Fatal("empty lane accepted")
	}
}

func TestLaneOf(t *testing.T) {
	p := &Partition{Lanes: [][]graph.Vertex{{2, 0}, {1}}}
	laneIdx, posIdx := p.LaneOf(3)
	if laneIdx[2] != 0 || posIdx[2] != 0 || laneIdx[0] != 0 || posIdx[0] != 1 || laneIdx[1] != 1 {
		t.Fatalf("LaneOf wrong: %v %v", laneIdx, posIdx)
	}
}

func TestCompletionOnSingleLanePath(t *testing.T) {
	g, r := pathRepresentation(5)
	// One lane is impossible for a path with overlapping neighbor intervals;
	// use the trivially ordered lane of every other vertex to exercise E1.
	_ = r
	p := &Partition{Lanes: [][]graph.Vertex{{0, 2, 4}, {1, 3}}}
	c := Complete(g, p, false)
	// E1 = {0-2, 2-4, 1-3}; none are real edges, so 3 virtual from E1.
	// E2 = {0-1} which is a real edge.
	if len(c.E1) != 3 || len(c.E2) != 1 {
		t.Fatalf("E1=%d E2=%d", len(c.E1), len(c.E2))
	}
	if len(c.Virtual) != 3 {
		t.Fatalf("virtual=%v", c.Virtual)
	}
	if c.Graph.M() != g.M()+3 {
		t.Fatalf("completed graph m=%d", c.Graph.M())
	}
	weak := Complete(g, p, true)
	if len(weak.E2) != 0 || !weak.Weak {
		t.Fatal("weak completion must omit E2")
	}
}

func TestEmbeddingCongestionAndValidate(t *testing.T) {
	g := graph.PathGraph(4)
	emb := Embedding{
		graph.NewEdge(0, 2): {0, 1, 2},
		graph.NewEdge(1, 3): {1, 2, 3},
	}
	if got := emb.Congestion(); got != 2 {
		t.Fatalf("congestion = %d, want 2 (edge {1,2})", got)
	}
	c := &Completion{Virtual: []graph.Edge{{U: 0, V: 2}, {U: 1, V: 3}}}
	if err := emb.Validate(g, c); err != nil {
		t.Fatal(err)
	}
	// Path endpoints mismatch.
	bad := Embedding{graph.NewEdge(0, 2): {0, 1}}
	cBad := &Completion{Virtual: []graph.Edge{{U: 0, V: 2}}}
	if err := bad.Validate(g, cBad); err == nil {
		t.Fatal("endpoint mismatch accepted")
	}
	// Non-edge in path.
	bad = Embedding{graph.NewEdge(0, 2): {0, 2}}
	if err := bad.Validate(g, cBad); err == nil {
		t.Fatal("path through non-edge accepted")
	}
	// Missing virtual edge.
	if err := (Embedding{}).Validate(g, cBad); err == nil {
		t.Fatal("missing path accepted")
	}
	// Path for a non-virtual edge (alongside a valid one).
	extra := Embedding{
		graph.NewEdge(0, 2): {0, 1, 2},
		graph.NewEdge(1, 3): {1, 2, 3},
	}
	if err := extra.Validate(g, cBad); err == nil {
		t.Fatal("path for a non-virtual edge accepted")
	}
}

func TestSimplifyWalk(t *testing.T) {
	walk := []graph.Vertex{0, 1, 2, 1, 3}
	got := simplifyWalk(walk)
	want := []graph.Vertex{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("simplifyWalk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("simplifyWalk = %v, want %v", got, want)
		}
	}
	// Walk that returns to the start.
	got = simplifyWalk([]graph.Vertex{0, 1, 0, 2})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("simplifyWalk loop-to-start = %v", got)
	}
}

func TestBuildLowCongestionFigure1(t *testing.T) {
	// Figure 1: the 6-cycle with its width-3 representation.
	g := graph.CycleGraph(6)
	r := interval.NewRepresentation(6)
	r.Ivs[0] = interval.Interval{L: 1, R: 4}
	r.Ivs[1] = interval.Interval{L: 1, R: 1}
	r.Ivs[2] = interval.Interval{L: 1, R: 2}
	r.Ivs[3] = interval.Interval{L: 2, R: 3}
	r.Ivs[4] = interval.Interval{L: 3, R: 4}
	r.Ivs[5] = interval.Interval{L: 4, R: 4}
	p, c, emb, err := BuildLowCongestion(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(r); err != nil {
		t.Fatal(err)
	}
	k := r.Width()
	if int64(p.K()) > F(k) {
		t.Fatalf("lanes %d exceed F(%d)=%d", p.K(), k, F(k))
	}
	if err := emb.Validate(g, c); err != nil {
		t.Fatal(err)
	}
	if int64(emb.Congestion()) > H(k) {
		t.Fatalf("congestion %d exceeds H(%d)=%d", emb.Congestion(), k, H(k))
	}
}

func TestBuildLowCongestionSingleVertex(t *testing.T) {
	g := graph.New(1)
	r := interval.NewRepresentation(1)
	r.Ivs[0] = interval.Interval{L: 0, R: 0}
	p, c, emb, err := BuildLowCongestion(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || len(c.Virtual) != 0 || len(emb) != 0 {
		t.Fatalf("trivial case: lanes=%d virtual=%d", p.K(), len(c.Virtual))
	}
}

func TestBuildLowCongestionRejectsDisconnected(t *testing.T) {
	g := graph.New(2)
	r := interval.NewRepresentation(2)
	r.Ivs[0] = interval.Interval{L: 0, R: 0}
	r.Ivs[1] = interval.Interval{L: 5, R: 5}
	if _, _, _, err := BuildLowCongestion(g, r); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// randomIntervalGraph generates a connected graph with an interval
// representation of width ≤ k, by a birth/death process over at most k
// simultaneously active vertices; each new vertex connects to at least one
// active vertex.
func randomIntervalGraph(rng *rand.Rand, n, k int) (*graph.Graph, *interval.Representation) {
	g := graph.New(n)
	r := interval.NewRepresentation(n)
	active := []graph.Vertex{}
	step := 0
	next := 0
	for next < n || len(active) > 0 {
		step++
		canOpen := next < n && len(active) < k
		mustOpen := len(active) == 0
		if mustOpen || (canOpen && rng.Intn(2) == 0) {
			v := next
			next++
			r.Ivs[v] = interval.Interval{L: step, R: step}
			if len(active) > 0 {
				// Connect to ≥1 active vertex for connectivity.
				g.MustAddEdge(v, active[rng.Intn(len(active))])
				for _, w := range active {
					if !g.HasEdge(v, w) && rng.Intn(3) == 0 {
						g.MustAddEdge(v, w)
					}
				}
			}
			active = append(active, v)
			continue
		}
		// Close a random active vertex, but never the last one while
		// vertices remain to be opened (that would disconnect the graph).
		if len(active) == 1 && next < n {
			continue
		}
		idx := rng.Intn(len(active))
		v := active[idx]
		r.Ivs[v] = interval.Interval{L: r.Ivs[v].L, R: step}
		active = append(active[:idx], active[idx+1:]...)
	}
	return g, r
}

func TestQuickLowCongestionBounds(t *testing.T) {
	// Property (Prop 4.6): lanes ≤ F(width) and completion congestion
	// ≤ H(width) on random connected bounded-width interval graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2) // width 2 or 3
		n := 3 + rng.Intn(20)
		g, r := randomIntervalGraph(rng, n, k)
		if err := r.Validate(g); err != nil {
			t.Logf("generator bug: %v", err)
			return false
		}
		w := r.Width()
		p, c, emb, err := BuildLowCongestion(g, r)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := p.Validate(r); err != nil {
			t.Logf("seed %d: partition invalid: %v", seed, err)
			return false
		}
		if int64(p.K()) > F(w) {
			t.Logf("seed %d: %d lanes > F(%d)=%d", seed, p.K(), w, F(w))
			return false
		}
		if err := emb.Validate(g, c); err != nil {
			t.Logf("seed %d: embedding invalid: %v", seed, err)
			return false
		}
		if int64(emb.Congestion()) > H(w) {
			t.Logf("seed %d: congestion %d > H(%d)=%d", seed, emb.Congestion(), w, H(w))
			return false
		}
		// The weak completion (E1 paths only) must respect the tighter G
		// bound (first statement of Prop 4.6).
		weakEmb := Embedding{}
		inE2 := map[graph.Edge]bool{}
		for _, e := range c.E2 {
			inE2[e] = true
		}
		for ve, path := range emb {
			if !inE2[ve] {
				weakEmb[ve] = path
			}
		}
		if int64(weakEmb.Congestion()) > G(w) {
			t.Logf("seed %d: weak congestion %d > G(%d)=%d", seed, weakEmb.Congestion(), w, G(w))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGreedyLaneBound(t *testing.T) {
	// Property (Obs 4.3): greedy uses at most width lanes and produces a
	// valid partition; the shortest-path embedding of its completion is
	// valid on connected graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		n := 3 + rng.Intn(25)
		g, r := randomIntervalGraph(rng, n, k)
		p := Greedy(r)
		if err := p.Validate(r); err != nil {
			return false
		}
		if p.K() > r.Width() {
			return false
		}
		c := Complete(g, p, false)
		te, err := Embed(g, c, nil, nil, 1)
		if err != nil {
			return false
		}
		return te.Emb.Validate(g, c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionLanesArePaths checks the defining property of a completion:
// in the completed graph, each lane forms a path and the lane heads form a
// path (Definition 4.4, Figure 3).
func TestCompletionLanesArePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, r := randomIntervalGraph(rng, 18, 3)
	p, c, _, err := BuildLowCongestion(g, r)
	if err != nil {
		t.Fatal(err)
	}
	for li, lane := range p.Lanes {
		for j := 0; j+1 < len(lane); j++ {
			if !c.Graph.HasEdge(lane[j], lane[j+1]) {
				t.Fatalf("lane %d not a path in completion at %d", li, j)
			}
		}
	}
	for li := 0; li+1 < p.K(); li++ {
		if !c.Graph.HasEdge(p.Lanes[li][0], p.Lanes[li+1][0]) {
			t.Fatalf("lane heads %d,%d not adjacent in completion", li, li+1)
		}
	}
}
