package core

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/interval"
)

func caterpillar(spine, legs int) *graph.Graph {
	g := graph.PathGraph(spine)
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			v := g.AddVertex()
			g.MustAddEdge(s, v)
		}
	}
	return g
}

func proveOK(t *testing.T, s *Scheme, g *graph.Graph) (*cert.Config, *Labeling, *Stats) {
	t.Helper()
	cfg := cert.NewConfig(g)
	labeling, stats, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	return cfg, labeling, stats
}

func TestCompletenessAcrossGraphsAndProperties(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"path bipartite", graph.PathGraph(12), algebra.Colorable{Q: 2}},
		{"even cycle bipartite", graph.CycleGraph(10), algebra.Colorable{Q: 2}},
		{"odd cycle 3-colorable", graph.CycleGraph(9), algebra.Colorable{Q: 3}},
		{"caterpillar acyclic", caterpillar(5, 2), algebra.Colorable{Q: 2}},
		{"caterpillar forest", caterpillar(4, 3), algebra.Acyclic{}},
		{"path matching", graph.PathGraph(8), algebra.PerfectMatching{}},
		{"cycle matching", graph.CycleGraph(8), algebra.PerfectMatching{}},
		{"path even edges", graph.PathGraph(9), algebra.EvenEdges{}},
		{"cycle hamiltonian", graph.CycleGraph(7), algebra.HamiltonianCycle{}},
		{"spider vertex cover", graph.Spider(2), algebra.VertexCoverAtMost{C: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg, labeling, stats := proveOK(t, s, tc.g)
			verdicts := verify(t, s, cfg, labeling)
			for v, ok := range verdicts {
				if !ok {
					t.Fatalf("vertex %d rejected an honest labeling", v)
				}
			}
			if stats.HierarchyDepth > 2*stats.Lanes {
				t.Fatalf("depth %d exceeds 2·lanes=%d", stats.HierarchyDepth, 2*stats.Lanes)
			}
		})
	}
}

func TestPaperConstructionPipeline(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 24)
	cfg := cert.NewConfig(caterpillar(6, 1))
	labeling, stats, err := proveOpts(s, cfg, nil, StructureOptions{UsePaperConstruction: true})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("paper-construction labeling rejected")
	}
	if stats.Congestion < 1 && stats.VirtualEdges > 0 {
		t.Fatal("embedding stats inconsistent")
	}
}

func TestProveRejectsNoInstances(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"odd cycle bipartite", graph.CycleGraph(7), algebra.Colorable{Q: 2}},
		{"cycle acyclic", graph.CycleGraph(6), algebra.Acyclic{}},
		{"odd path matching", graph.PathGraph(5), algebra.PerfectMatching{}},
		{"path hamiltonian", graph.PathGraph(6), algebra.HamiltonianCycle{}},
		{"star vertex cover 0", graph.CompleteBipartite(1, 4), algebra.VertexCoverAtMost{C: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			if _, _, err := prove(s, cfg, nil); !errors.Is(err, ErrPropertyFails) {
				t.Fatalf("Prove err = %v, want ErrPropertyFails", err)
			}
		})
	}
}

func TestProveLaneBudget(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 3}, 1)
	cfg := cert.NewConfig(graph.CycleGraph(6))
	if _, _, err := prove(s, cfg, nil); !errors.Is(err, ErrTooManyLanes) {
		t.Fatalf("err = %v, want ErrTooManyLanes", err)
	}
}

func TestSingleVertex(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 2)
	cfg := cert.NewConfig(graph.New(1))
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("single vertex rejected")
	}
	// K1 has no perfect matching.
	sm := NewScheme(algebra.PerfectMatching{}, 2)
	if _, _, err := prove(sm, cfg, nil); !errors.Is(err, ErrPropertyFails) {
		t.Fatalf("matching on K1: %v", err)
	}
}

func TestLabelBitsGrowLogarithmically(t *testing.T) {
	// Theorem 1 (E1): max label bits fit c₁·log₂(n) + c₂ across a wide
	// range of n for a fixed class (paths, bipartiteness).
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	type point struct {
		n    int
		bits int
	}
	var pts []point
	for _, n := range []int{16, 64, 256, 1024} {
		g := graph.PathGraph(n)
		pd := interval.OrderingDecomposition(g, interval.HeuristicOrdering(g))
		cfg := cert.NewConfig(g)
		labeling, stats, err := prove(s, cfg, pd)
		if err != nil {
			t.Fatal(err)
		}
		if !AllAccept(verify(t, s, cfg, labeling)) {
			t.Fatalf("n=%d rejected", n)
		}
		pts = append(pts, point{n, stats.MaxLabelBits})
	}
	// The intercept absorbs the fixed per-entry overhead of content-hashed
	// class ids (32-bit, order-independent across generations); the slope is
	// the genuinely n-dependent part (observed ≈200 bits per doubling).
	for _, p := range pts {
		bound := 250*int(math.Log2(float64(p.n))) + 2400
		if p.bits > bound {
			t.Fatalf("n=%d: %d bits exceeds O(log n) envelope %d", p.n, p.bits, bound)
		}
	}
	// Growth between successive quadruplings must be roughly additive
	// (logarithmic), not multiplicative (polynomial).
	for i := 1; i < len(pts); i++ {
		if pts[i].bits > 2*pts[i-1].bits {
			t.Fatalf("label bits grew superlogarithmically: %v", pts)
		}
	}
}

// corrupt applies one random mutation to a cloned labeling and reports a
// short description.
func corrupt(rng *rand.Rand, labeling *Labeling) string {
	edges := make([]graph.Edge, 0, len(labeling.Edges))
	for e := range labeling.Edges {
		edges = append(edges, e)
	}
	e := edges[rng.Intn(len(edges))]
	el := labeling.Edges[e]
	pick := func(c *CEdgeLabel) *NodeEntry {
		return c.Path[rng.Intn(len(c.Path))]
	}
	for {
		switch rng.Intn(10) {
		case 0:
			if el.Own == nil {
				continue
			}
			en := pick(el.Own)
			en.Classes[0] += 1 + rng.Intn(3)
			return "class id"
		case 1:
			if el.Own == nil {
				continue
			}
			en := pick(el.Own)
			if len(en.RealBits) == 0 {
				continue
			}
			i := rng.Intn(len(en.RealBits))
			en.RealBits[i] = !en.RealBits[i]
			return "real bit"
		case 2:
			if el.Own == nil {
				continue
			}
			en := pick(el.Own)
			for l := range en.InIDs {
				en.InIDs[l] += 1 + uint64(rng.Intn(5))
				return "in-terminal id"
			}
			continue
		case 3:
			if el.Own == nil {
				continue
			}
			en := pick(el.Own)
			if en.ParentID == -1 {
				continue
			}
			en.Classes[1] += 1 + rng.Intn(3)
			return "merged class id"
		case 4:
			if len(el.Emb) == 0 {
				continue
			}
			el.Emb[rng.Intn(len(el.Emb))].Fwd += 1 + rng.Intn(2)
			return "embedding rank"
		case 5:
			if len(el.Emb) == 0 {
				continue
			}
			el.Emb[rng.Intn(len(el.Emb))].UID += 1 + uint64(rng.Intn(4))
			return "embedding endpoint"
		case 6:
			if el.Pointing == nil {
				continue
			}
			el.Pointing.DU += 1 + rng.Intn(3)
			return "pointing distance"
		case 7:
			if el.Own == nil {
				continue
			}
			en := pick(el.Own)
			if len(en.Children) == 0 {
				continue
			}
			last := 1 + len(en.Children) // the last child's merged class
			en.Classes = slices.Delete(en.Classes, last, last+1)
			en.Children = en.Children[:len(en.Children)-1]
			return "dropped child summary"
		case 8:
			el.Own = nil
			return "dropped certificate"
		default:
			if el.Own == nil {
				continue
			}
			root := el.Own.Path[0]
			if root.RootMember == nil {
				continue
			}
			root.Classes[len(root.Classes)-1] += 1 + rng.Intn(3) // the root member's merged class
			return "root member class"
		}
	}
}

func TestSoundnessUnderCorruption(t *testing.T) {
	// E5: every single-field corruption of a valid labeling is rejected.
	configs := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
	}{
		{"cycle bipartite", graph.CycleGraph(10), algebra.Colorable{Q: 2}},
		{"caterpillar forest", caterpillar(4, 2), algebra.Acyclic{}},
		{"path matching", graph.PathGraph(8), algebra.PerfectMatching{}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg, labeling, _ := proveOK(t, s, tc.g)
			if !AllAccept(verify(t, s, cfg, labeling)) {
				t.Fatal("honest labeling rejected")
			}
			rng := rand.New(rand.NewSource(99))
			const trials = 120
			for trial := 0; trial < trials; trial++ {
				mutated := labeling.Clone()
				desc := corrupt(rng, mutated)
				if AllAccept(verify(t, s, cfg, mutated)) {
					t.Fatalf("trial %d: corruption %q accepted", trial, desc)
				}
			}
		})
	}
}

func TestSoundnessCycleMasqueradingAsPath(t *testing.T) {
	// The KKP10 lower-bound scenario: certify acyclicity of P_n, then close
	// the cycle and give the new edge a copied label. Some vertex must
	// reject.
	n := 8
	pathG := graph.PathGraph(n)
	s := NewScheme(algebra.Acyclic{}, 4)
	cfgPath := cert.NewConfig(pathG)
	labeling, _, err := prove(s, cfgPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	cycleG := graph.CycleGraph(n)
	cfgCycle := cert.NewConfig(cycleG)
	for _, donor := range pathG.Edges() {
		forged := labeling.Clone()
		forged.Edges[graph.NewEdge(0, n-1)] = forged.Edges[donor].clone()
		if AllAccept(verify(t, s, cfgCycle, forged)) {
			t.Fatalf("cycle accepted with donor label %v", donor)
		}
	}
}

func TestVerifyRejectsMissingLabel(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	cfg, labeling, _ := proveOK(t, s, graph.PathGraph(6))
	delete(labeling.Edges, graph.NewEdge(2, 3))
	if AllAccept(verify(t, s, cfg, labeling)) {
		t.Fatal("missing edge label accepted")
	}
}

func TestVerifyAtNeverPanicsOnGarbage(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	views := []*VertexView{
		{ID: 1},
		{ID: 1, Labels: []*EdgeLabel{nil}},
		{ID: 1, Labels: []*EdgeLabel{{}}},
		{ID: 1, Labels: []*EdgeLabel{{Own: &CEdgeLabel{}}}},
		{ID: 1, Labels: []*EdgeLabel{{Own: &CEdgeLabel{Path: []*NodeEntry{{}}}}}},
		{ID: 1, Labels: []*EdgeLabel{{
			Own: &CEdgeLabel{Path: []*NodeEntry{{Shape: &Shape{NodeSummary: &NodeSummary{Kind: 99, Lanes: []int{0}}}}}},
			Emb: []EmbEntry{{UID: 1, VID: 1, Fwd: 0, Bwd: 0}},
		}}},
		// Two copies of one virtual edge's certificate, one with a nil
		// shape: they are compared before any chain is checked.
		{ID: 1, Labels: []*EdgeLabel{{
			Own: &CEdgeLabel{Path: []*NodeEntry{{}}},
			Emb: []EmbEntry{
				{UID: 2, VID: 3, Fwd: 1, Bwd: 2, Payload: &CEdgeLabel{Path: []*NodeEntry{{}}}},
				{UID: 2, VID: 3, Fwd: 2, Bwd: 1, Payload: &CEdgeLabel{Path: []*NodeEntry{{Shape: &Shape{NodeSummary: &NodeSummary{}}}}}},
			},
		}}},
	}
	for i, view := range views {
		if s.VerifyAt(view) {
			t.Fatalf("garbage view %d accepted", i)
		}
	}

	// A nil child summary in one member entry of an honest labeling.
	cs := NewScheme(algebra.Colorable{Q: 3}, 6)
	cfg := cert.NewConfig(graph.CycleGraph(9))
	labeling, _, err := prove(cs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := &Labeling{Edges: maps.Clone(labeling.Edges)}
	for e, el := range labeling.Edges {
		c := el.Clone()
		if i := slices.IndexFunc(c.Own.Path, func(n *NodeEntry) bool { return len(n.Children) > 0 }); i >= 0 {
			c.Own.Path[i].Children[0] = nil
			forged.Edges[e] = c
			break
		}
	}
	if maps.EqualFunc(forged.Edges, labeling.Edges, func(a, b *EdgeLabel) bool { return a == b }) {
		t.Fatal("no member entry with children to forge")
	}
	if AllAccept(verify(t, cs, cfg, forged)) {
		t.Fatal("a nil child summary was accepted")
	}
}

func TestQuickRandomIntervalGraphsEndToEnd(t *testing.T) {
	// Random bounded-width connected graphs: prove and verify 3-colorable
	// (holds for most; skip failures of the property itself).
	rng := rand.New(rand.NewSource(5))
	proved := 0
	for trial := 0; trial < 25; trial++ {
		g := randomIntervalGraph(rng, 6+rng.Intn(14), 3)
		if !algebra.OracleQColorable(g, 3) {
			continue
		}
		s := NewScheme(algebra.Colorable{Q: 3}, 6)
		cfg := cert.NewConfig(g)
		labeling, stats, err := prove(s, cfg, nil)
		if errors.Is(err, ErrTooManyLanes) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !AllAccept(verify(t, s, cfg, labeling)) {
			t.Fatalf("trial %d: honest labeling rejected", trial)
		}
		if stats.MaxLabelBits <= 0 {
			t.Fatalf("trial %d: no label bits recorded", trial)
		}
		proved++
	}
	if proved < 10 {
		t.Fatalf("only %d random instances proved", proved)
	}
}

// randomIntervalGraph mirrors the bounded-width generator used in the lanes
// and lanewidth tests.
func randomIntervalGraph(rng *rand.Rand, n, k int) *graph.Graph {
	g := graph.New(n)
	var active []graph.Vertex
	next := 0
	for next < n || len(active) > 1 {
		canOpen := next < n && len(active) < k
		mustOpen := len(active) == 0
		if mustOpen || (canOpen && rng.Intn(2) == 0) {
			v := next
			next++
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
		active = append(active[:idx], active[idx+1:]...)
	}
	return g
}
