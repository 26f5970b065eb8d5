package lanewidth

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
)

// figure10Builder builds a small 3-lane construction in the style of the
// paper's Figure 10, exercising all hierarchy cases: V-inserts on several
// lanes and E-inserts whose owners are leaves, siblings, and ancestors.
func figure10Builder(t *testing.T) *Builder {
	t.Helper()
	b, err := NewBuilder(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(0); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(1); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.EInsert(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.VInsert(2); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(4)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("initial path: n=%d m=%d", g.N(), g.M())
	}
	v, err := b.VInsert(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 || b.Designated(1) != 4 || !g.HasEdge(1, 4) {
		t.Fatalf("V-insert wrong: v=%d τ1=%d", v, b.Designated(1))
	}
	if err := b.EInsert(1, 3); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(4, 3) {
		t.Fatal("E-insert edge missing")
	}
	if err := b.EInsert(1, 1); err == nil {
		t.Fatal("same-lane E-insert accepted")
	}
	if err := b.EInsert(1, 3); err == nil {
		t.Fatal("duplicate E-insert accepted")
	}
	if _, err := b.VInsert(9); err == nil {
		t.Fatal("out-of-range V-insert accepted")
	}
	if _, err := NewBuilder(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestReplayMatchesBuilder(t *testing.T) {
	b := figure10Builder(t)
	g2, err := b.Log().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(b.Graph(), g2) {
		t.Fatal("replay differs from built graph")
	}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

func TestToCompletionIsCompletion(t *testing.T) {
	// Proposition 5.2, item 1 ⇒ item 2: the completion of (G', I', P')
	// derived from the transcript equals the built graph.
	b := figure10Builder(t)
	gPrime, r, p := b.Log().ToCompletion(b.Graph())
	if err := r.Validate(gPrime); err != nil {
		t.Fatalf("interval representation invalid: %v", err)
	}
	if err := p.Validate(r); err != nil {
		t.Fatalf("lane partition invalid: %v", err)
	}
	c := lanes.Complete(gPrime, p, false)
	if !sameGraph(c.Graph, b.Graph()) {
		t.Fatal("completion differs from built graph")
	}
}

func TestFromCompletionRoundTrip(t *testing.T) {
	// item 2 ⇒ item 1: converting the completion data back to an OpLog and
	// replaying reproduces the graph.
	b := figure10Builder(t)
	gPrime, r, p := b.Log().ToCompletion(b.Graph())
	log, err := FromCompletion(gPrime, r, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := log.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(b.Graph(), g2) {
		t.Fatal("FromCompletion replay differs from original graph")
	}
}

func TestKLaneMerges(t *testing.T) {
	// Bridge-merge of two single-edge graphs on lanes 0 and 1.
	a := SingleEdge(0)
	bEdge := SingleEdge(1)
	m, err := BridgeMerge(a, bEdge, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.G.N() != 4 || m.G.M() != 3 {
		t.Fatalf("bridge merge: n=%d m=%d", m.G.N(), m.G.M())
	}
	if !m.G.HasEdge(a.Out[0], bEdge.Out[1]+2) {
		t.Fatal("bridge edge missing")
	}
	if got := m.Lanes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("merged lanes = %v", got)
	}
	// Lane clash.
	if _, err := BridgeMerge(a, SingleEdge(0), 0, 0); err == nil {
		t.Fatal("lane clash accepted")
	}
	// Missing lane.
	if _, err := BridgeMerge(a, bEdge, 5, 1); err == nil {
		t.Fatal("missing lane accepted")
	}
}

func TestParentMergeGluing(t *testing.T) {
	// Parent: path on 2 lanes. Child: single edge on lane 0.
	parent := InitialPath(2)
	child := SingleEdge(0)
	m, _, err := ParentMerge(child, parent)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Glued vertex: child's in-terminal onto parent's out-terminal 0.
	if m.G.N() != 3 {
		t.Fatalf("n=%d, want 3 (one glued vertex)", m.G.N())
	}
	if m.Out[0] == parent.Out[0] {
		t.Fatal("lane 0 out-terminal not advanced to child's")
	}
	if m.Out[1] != parent.Out[1] {
		t.Fatal("lane 1 out-terminal should remain the parent's")
	}
	if m.In[0] != parent.In[0] || m.In[1] != parent.In[1] {
		t.Fatal("in-terminals must come from the parent")
	}
	// Child lane missing from parent.
	if _, _, err := ParentMerge(SingleEdge(7), parent); err == nil {
		t.Fatal("child lane outside parent accepted")
	}
	// Edge identification: gluing a single edge onto a parent that already
	// has that edge between out-terminals.
	p2 := InitialPath(2) // edge between vertices 0,1 = out-terminals 0,1
	badChild := &KLane{
		G:   graph.PathGraph(2),
		In:  map[int]graph.Vertex{0: 0, 1: 1},
		Out: map[int]graph.Vertex{0: 0, 1: 1},
	}
	if _, _, err := ParentMerge(badChild, p2); err == nil {
		t.Fatal("edge identification accepted")
	}
}

func TestHierarchyFigure10(t *testing.T) {
	b := figure10Builder(t)
	h, err := BuildHierarchy(b.Graph(), b.Log())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := h.Depth(); d > 2*3 {
		t.Fatalf("depth %d exceeds 2k=6", d)
	}
	if h.Root.Kind != TNode {
		t.Fatalf("root kind %v", h.Root.Kind)
	}
	// Every edge of the graph is owned exactly once (checked by Validate);
	// spot-check owners map covers all edges.
	owners := h.EdgeOwners()
	if len(owners) != b.Graph().M() {
		t.Fatalf("owners cover %d of %d edges", len(owners), b.Graph().M())
	}
	for e, n := range owners {
		top, depth := n, 1
		for ; top.Parent != nil; top = top.Parent {
			depth++
		}
		if top != h.Root {
			t.Fatalf("node path of %v does not start at root", e)
		}
		if depth > 2*3 {
			t.Fatalf("edge %v has node path of length %d", e, depth)
		}
	}
}

func randomOpLog(rng *rand.Rand, k, nOps int) (*Builder, error) {
	b, err := NewBuilder(k)
	if err != nil {
		return nil, err
	}
	for len(b.Log().Ops) < nOps {
		if rng.Intn(2) == 0 {
			if _, err := b.VInsert(rng.Intn(k)); err != nil {
				return nil, err
			}
			continue
		}
		i, j := rng.Intn(k), rng.Intn(k)
		if i == j || b.Graph().HasEdge(b.Designated(i), b.Designated(j)) {
			continue
		}
		if err := b.EInsert(i, j); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// quickHierarchy builds the hierarchy of the quick-check construction
// drawn from seed, returning its lane count.
func quickHierarchy(t *testing.T, seed int64) (*Hierarchy, int, bool) {
	rng := rand.New(rand.NewSource(seed))
	k := 2 + rng.Intn(4)
	b, err := randomOpLog(rng, k, 5+rng.Intn(30))
	if err != nil {
		t.Logf("seed %d: builder: %v", seed, err)
		return nil, 0, false
	}
	h, err := BuildHierarchy(b.Graph(), b.Log())
	if err != nil {
		t.Logf("seed %d: hierarchy: %v", seed, err)
		return nil, 0, false
	}
	return h, k, true
}

func TestQuickHierarchyValidAndBoundedDepth(t *testing.T) {
	// Property (Prop 5.6 + Obs 5.5): every random lanewidth-k construction
	// yields a valid hierarchical decomposition of depth ≤ 2k.
	f := func(seed int64) bool {
		h, k, ok := quickHierarchy(t, seed)
		if !ok {
			return false
		}
		if err := h.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		return h.Depth() <= 2*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemberFolds checks the post-order member fold against the
// per-lane reference descent: every member's MergedOut is lane-aligned and
// holds mergedOutLane on each lane. It also checks that the bulk accessor's
// shallow entries (first > 0) keep the member order, parents and children
// of the full fold, and drop MergedOut exactly for frozen T-nodes. Both run
// at default parallelism, so GOMAXPROCS=1 covers the inline folds.
func TestQuickMemberFolds(t *testing.T) {
	f := func(seed int64) bool {
		h, _, ok := quickHierarchy(t, seed)
		if !ok {
			return false
		}
		full := h.MembersByTNodeFromP(0, 0)
		first := len(h.Nodes) / 2
		shallow := h.MembersByTNodeFromP(first, 0)
		for _, n := range h.Nodes {
			if (full[n.ID] != nil) != (n.Kind == TNode) {
				t.Logf("seed %d: node %d (%v) has %d member infos", seed, n.ID, n.Kind, len(full[n.ID]))
				return false
			}
			if n.Kind != TNode {
				continue
			}
			var tvs []*TreeVertex
			var walk func(tv *TreeVertex)
			walk = func(tv *TreeVertex) {
				tvs = append(tvs, tv)
				for _, c := range tv.Children {
					walk(c)
				}
			}
			walk(n.Tree)
			mis, sh := full[n.ID], shallow[n.ID]
			if len(mis) != len(tvs) || len(sh) != len(tvs) {
				t.Logf("seed %d: T-node %d: %d and %d member infos for %d members", seed, n.ID, len(mis), len(sh), len(tvs))
				return false
			}
			frozen := n.ID < first && n != h.Root
			for i, tv := range tvs {
				mi := mis[i]
				if mi.Node != tv.Node || sh[i].Node != mi.Node || sh[i].TreeParent != mi.TreeParent ||
					!slices.Equal(sh[i].TreeChildren, mi.TreeChildren) {
					t.Logf("seed %d: T-node %d: member %d differs between full and shallow infos", seed, n.ID, i)
					return false
				}
				if len(mi.MergedOut) != len(mi.Node.Lanes) {
					t.Logf("seed %d: member %d has %d merged terminals for %d lanes", seed, mi.Node.ID, len(mi.MergedOut), len(mi.Node.Lanes))
					return false
				}
				for li, l := range mi.Node.Lanes {
					if want := mergedOutLane(tv, l); mi.MergedOut[li] != want {
						t.Logf("seed %d: member %d lane %d merged out %d, want %d", seed, mi.Node.ID, l, mi.MergedOut[li], want)
						return false
					}
				}
				if (sh[i].MergedOut == nil) != frozen || (!frozen && !slices.Equal(sh[i].MergedOut, mi.MergedOut)) {
					t.Logf("seed %d: T-node %d (frozen=%v): shallow member %d fold mismatch", seed, n.ID, frozen, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsTerminalCountMismatch pins the validator's one
// terminal check: on every node of a valid hierarchy, an in- or
// out-terminal slice one shorter or one longer than the lane set is
// rejected.
func TestValidateRejectsTerminalCountMismatch(t *testing.T) {
	b := figure10Builder(t)
	h, err := BuildHierarchy(b.Graph(), b.Log())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateP(0); err != nil {
		t.Fatal(err)
	}
	resizes := []struct {
		name string
		fn   func([]graph.Vertex) []graph.Vertex
	}{
		{"short", func(vs []graph.Vertex) []graph.Vertex { return vs[:len(vs)-1] }},
		{"long", func(vs []graph.Vertex) []graph.Vertex { return append(slices.Clip(vs), vs[0]) }},
	}
	for _, n := range h.Nodes {
		for _, rs := range resizes {
			for _, side := range []*[]graph.Vertex{&n.In, &n.Out} {
				saved := *side
				*side = rs.fn(saved)
				err := h.ValidateP(0)
				*side = saved
				if err == nil {
					t.Fatalf("%v-node %d: %s terminal slice accepted", n.Kind, n.ID, rs.name)
				}
			}
		}
	}
	if err := h.ValidateP(0); err != nil {
		t.Fatalf("restored hierarchy rejected: %v", err)
	}
}

// TestValidateKeepsOneOwnerTable pins the edge-partition check and the
// table it leaves behind: validation rejects a second owner of an edge, and
// a validated hierarchy hands every EdgeOwners caller the one table.
func TestValidateKeepsOneOwnerTable(t *testing.T) {
	b := figure10Builder(t)
	h, err := BuildHierarchy(b.Graph(), b.Log())
	if err != nil {
		t.Fatal(err)
	}
	var es []*Node
	for _, n := range h.Nodes {
		if n.Kind == ENode {
			es = append(es, n)
		}
	}
	if len(es) < 2 {
		t.Fatalf("figure 10 has %d E-nodes, want at least 2", len(es))
	}
	saved := es[1].Edge
	es[1].Edge = es[0].Edge
	err = h.ValidateP(0)
	es[1].Edge = saved
	if err == nil || !strings.Contains(err.Error(), "owned by nodes") {
		t.Fatalf("second owner of edge %v: got %v", es[0].Edge, err)
	}
	if err := h.ValidateP(0); err != nil {
		t.Fatal(err)
	}
	owners := h.EdgeOwners()
	if len(owners) != h.Graph.M() {
		t.Fatalf("owners cover %d of %d edges", len(owners), h.Graph.M())
	}
	if reflect.ValueOf(owners).UnsafePointer() != reflect.ValueOf(h.EdgeOwners()).UnsafePointer() {
		t.Fatal("EdgeOwners rebuilt the table validation kept")
	}
}

func TestQuickCompletionRoundTrip(t *testing.T) {
	// Property (Prop 5.2 both directions): builder → completion → OpLog →
	// replay is the identity on graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		b, err := randomOpLog(rng, k, 3+rng.Intn(25))
		if err != nil {
			return false
		}
		gPrime, r, p := b.Log().ToCompletion(b.Graph())
		if r.Validate(gPrime) != nil || p.Validate(r) != nil {
			t.Logf("seed %d: invalid completion data", seed)
			return false
		}
		c := lanes.Complete(gPrime, p, false)
		if !sameGraph(c.Graph, b.Graph()) {
			t.Logf("seed %d: completion mismatch", seed)
			return false
		}
		log, err := FromCompletion(gPrime, r, p)
		if err != nil {
			t.Logf("seed %d: FromCompletion: %v", seed, err)
			return false
		}
		g2, err := log.Replay()
		if err != nil {
			t.Logf("seed %d: replay: %v", seed, err)
			return false
		}
		return sameGraph(b.Graph(), g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSection4ToSection5(t *testing.T) {
	// End-to-end: a bounded-pathwidth graph → Prop 4.6 lanes/completion →
	// Prop 5.2 OpLog → Prop 5.6 hierarchy, all validated.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g, r := randomConnectedIntervalGraph(rng, 4+rng.Intn(16), 2+rng.Intn(2))
		p, c, _, err := lanes.BuildLowCongestion(g, r)
		if err != nil {
			t.Fatal(err)
		}
		// The completion's "G'" for Prop 5.2 is the original graph g; its
		// interval data is r and the lanes are p. The completed graph is
		// c.Graph.
		log, err := FromCompletion(g, r, p)
		if err != nil {
			t.Fatalf("trial %d: FromCompletion: %v", trial, err)
		}
		g2, err := log.Replay()
		if err != nil {
			t.Fatalf("trial %d: replay: %v", trial, err)
		}
		if !sameGraph(c.Graph, g2) {
			t.Fatalf("trial %d: replay differs from completion", trial)
		}
		h, err := BuildHierarchy(c.Graph, log)
		if err != nil {
			t.Fatalf("trial %d: hierarchy: %v", trial, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: validate: %v", trial, err)
		}
		if h.Depth() > 2*p.K() {
			t.Fatalf("trial %d: depth %d > 2·%d", trial, h.Depth(), p.K())
		}
	}
}

// randomConnectedIntervalGraph mirrors the generator in the lanes tests: a
// birth/death process with ≤ k active vertices.
func randomConnectedIntervalGraph(rng *rand.Rand, n, k int) (*graph.Graph, *interval.Representation) {
	g := graph.New(n)
	r := interval.NewRepresentation(n)
	var active []graph.Vertex
	step, next := 0, 0
	for next < n || len(active) > 0 {
		step++
		canOpen := next < n && len(active) < k
		mustOpen := len(active) == 0
		if mustOpen || (canOpen && rng.Intn(2) == 0) {
			v := next
			next++
			r.Ivs[v] = interval.Interval{L: step, R: step}
			if len(active) > 0 {
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
