package core

import (
	"context"
	"maps"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// star returns K_{1,leaves} with hub 0.
func star(tb testing.TB, leaves int) *graph.Graph {
	g := graph.New(leaves + 1)
	for v := 1; v <= leaves; v++ {
		if err := g.AddEdge(0, v); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

// starLabeling proves bipartiteness of the star K_{1,leaves} and returns a
// scheme whose registry is rebuilt from the decoded labeling, as a
// verifier holding only the certificate has it.
func starLabeling(tb testing.TB, leaves int) (*Scheme, *cert.Config, *Labeling) {
	tb.Helper()
	cfg := cert.NewConfig(star(tb, leaves))
	labeling, _, err := prove(NewScheme(algebra.Colorable{Q: 2}, 4), cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	decoded := decodedCopy(tb, labeling)
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	s.Workers = 1
	if err := s.RebuildRegistry(decoded); err != nil {
		tb.Fatal(err)
	}
	return s, cfg, decoded
}

// TestForgedHubViews forges the hub's view of K_{1,40} and K_{1,120},
// whose more than linearRows entries the verifier finds through its entry
// index, and requires the hub to reject each forgery on a view it indexed:
// a class id flipped on one copy of the root entry, one lane id of that
// copy's shape changed (both on the hub's last label, read after the index
// is built), and, against maxdeg:d, a certificate moved onto K_{1,d+1}:
// K_{1,d} with a pendant vertex on one leaf is proved, and the pendant
// edge's label is moved onto an edge from the hub. Each forgery is
// verified in memory and after a wire round trip.
func TestForgedHubViews(t *testing.T) {
	type forgery struct {
		s   *Scheme
		cfg *cert.Config
		l   *Labeling
	}
	for _, d := range []int{40, 120} {
		s, cfg, honest := starLabeling(t, d)
		hub := cfg.G.Neighbors(0)
		last := graph.NewEdge(0, hub[len(hub)-1])
		forge := func(mutate func(*NodeEntry)) *Labeling {
			forged := &Labeling{Edges: maps.Clone(honest.Edges)}
			l := honest.Edges[last].Clone()
			mutate(l.Own.Path[0])
			forged.Edges[last] = l
			return forged
		}
		cases := map[string]forgery{
			"class id": {s, cfg, forge(func(e *NodeEntry) { e.Classes[0] ^= 1 })},
			"lane id":  {s, cfg, forge(func(e *NodeEntry) { e.Lanes[len(e.Lanes)-1] = s.MaxLanes - 1 })},
		}
		// K_{1,d} with a pendant vertex x = d+1 on leaf d has maximum
		// degree d; moving the label of edge {d, x}, less its embedding
		// entries, onto {0, x} gives K_{1,d+1}.
		pendant := star(t, d+1)
		if err := pendant.RemoveEdge(0, d+1); err != nil {
			t.Fatal(err)
		}
		if err := pendant.AddEdge(d, d+1); err != nil {
			t.Fatal(err)
		}
		mcfg := cert.NewConfig(pendant)
		ml, _, err := prove(NewScheme(algebra.MaxDegreeAtMost{D: d}, 4), mcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		moved := &Labeling{Edges: maps.Clone(ml.Edges)}
		delete(moved.Edges, graph.NewEdge(d, d+1))
		l := ml.Edges[graph.NewEdge(d, d+1)].Clone()
		l.Emb = nil // the hub's embedding check would reject them before any entry is read
		moved.Edges[graph.NewEdge(0, d+1)] = l
		ms := NewScheme(algebra.MaxDegreeAtMost{D: d}, 4)
		if err := ms.RebuildRegistry(moved); err != nil {
			t.Fatal(err)
		}
		cases["extra leaf"] = forgery{ms, &cert.Config{G: star(t, d+1), IDs: mcfg.IDs, VInput: mcfg.VInput}, moved}

		if sc := (&vertexScratch{}); !s.verifyVertex(cfg, honest, 0, sc) || sc.indexed != 1 {
			t.Fatalf("K_{1,%d}: the honest hub rejects, or its view was not indexed", d)
		}
		for name, c := range cases {
			wire, ok := wireRoundTrip(c.l)
			if !ok {
				t.Fatalf("K_{1,%d} %s: the forgery does not survive the wire", d, name)
			}
			for _, l := range []*Labeling{c.l, wire} {
				sc := &vertexScratch{}
				if c.s.verifyVertex(c.cfg, l, 0, sc) {
					t.Fatalf("K_{1,%d}: the hub accepts a forged %s", d, name)
				}
				if sc.indexed != 1 {
					t.Fatalf("K_{1,%d} %s: the hub's view was not indexed", d, name)
				}
			}
		}
	}
}

// verifyStar verifies a star labeling on one worker and returns the time
// it took.
func verifyStar(tb testing.TB, s *Scheme, cfg *cert.Config, l *Labeling) time.Duration {
	tb.Helper()
	start := time.Now()
	verdicts, err := s.VerifyParallelCtx(context.Background(), cfg, l)
	if err != nil || !AllAccept(verdicts) {
		tb.Fatalf("the honest star labeling is rejected: %v", err)
	}
	return time.Since(start)
}

// TestVerifyStarScales pins the verifier's work at a hub to near-linear in
// its degree: a hub's view holds entries and child claims in proportion to
// its degree, and scanning all of them for each one made K_{1,4000} take
// about 22 times as long as K_{1,1000}. Quadrupling the degree may cost at
// most 8 times as many entry-index probes and claim reads at the hub (a
// deterministic count; the quadratic scan reads about 16 times as many).
// The wall times of a whole verification are logged, not bounded: they
// measure the host's load as much as the verifier.
func TestVerifyStarScales(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies two stars")
	}
	hub := func(leaves int) (probes int, fastest time.Duration) {
		s, cfg, l := starLabeling(t, leaves)
		sc := &vertexScratch{}
		if !s.verifyVertex(cfg, l, 0, sc) || sc.indexed != 1 {
			t.Fatalf("K_{1,%d}: the honest hub rejects, or its view was not indexed", leaves)
		}
		fastest = time.Duration(1 << 62)
		for range 3 {
			fastest = min(fastest, verifyStar(t, s, cfg, l))
		}
		return sc.probes, fastest
	}
	small, smallT := hub(1000)
	large, largeT := hub(4000)
	ratio := float64(large) / float64(small)
	t.Logf("hub probes K_{1,1000}: %d, K_{1,4000}: %d, ratio %.2f; wall %v and %v, ratio %.1f",
		small, large, ratio, smallT, largeT, float64(largeT)/float64(smallT))
	if ratio > 8 {
		t.Fatalf("the K_{1,4000} hub makes %.2f times the probes of the K_{1,1000} hub, want ≤ 8", ratio)
	}
}

// BenchmarkVerifyStar measures verification of a decoded bipartiteness
// certificate of the star K_{1,4000} on one worker.
func BenchmarkVerifyStar(b *testing.B) {
	s, cfg, l := starLabeling(b, 4000)
	b.ResetTimer()
	for range b.N {
		verifyStar(b, s, cfg, l)
	}
}

// TestPNodeDuplicatePositionRejected makes a vertex's two owned P-node
// path edges claim the same owner position — the edge after it relabelled
// as the edge before it, both real as the entry says — and requires the
// vertex to reject: it owns exactly one edge at each of its two positions,
// however many edges it owns in all.
func TestPNodeDuplicatePositionRejected(t *testing.T) {
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	cfg := cert.NewConfig(graph.CycleGraph(10))
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cfg.G.N() {
		var owned []graph.Edge
		var pos []int
		var node *NodeEntry
		for _, w := range cfg.G.Neighbors(v) {
			e := graph.NewEdge(v, w)
			own := labeling.Edges[e].Own
			last := own.Path[len(own.Path)-1]
			if last.Kind != lanewidth.PNode || node != nil && last != node {
				continue
			}
			node = last
			owned, pos = append(owned, e), append(pos, own.OwnerPos)
		}
		if len(owned) != 2 || pos[0] == pos[1] || !node.RealBits[pos[0]] || !node.RealBits[pos[1]] {
			continue
		}
		if !s.verifyVertex(cfg, labeling, v, &vertexScratch{}) {
			t.Fatalf("vertex %d rejects the honest labeling", v)
		}
		forged := &Labeling{Edges: maps.Clone(labeling.Edges)}
		l := labeling.Edges[owned[1]].Clone()
		l.Own.OwnerPos = pos[0]
		forged.Edges[owned[1]] = l
		if s.verifyVertex(cfg, forged, v, &vertexScratch{}) {
			t.Fatalf("vertex %d accepts two owned edges at P-node position %d", v, pos[0])
		}
		return
	}
	t.Fatal("no vertex owns two real edges of one P-node")
}
