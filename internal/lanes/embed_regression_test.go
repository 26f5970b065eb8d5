package lanes_test

// Regression pin for the batched-BFS embedding: lanes.Embed must return, at
// any worker count and after any re-embedding, for every virtual edge
// exactly the path the naive per-edge
// g.Path(ve.U, ve.V) reference produces. The prover's labels are built from
// these paths, so path identity is what keeps the optimized prover's output
// bit-identical to the naive one.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/lanes"
)

// genFamilies returns one representative connected graph per internal/gen
// family (plus the plain path/cycle used throughout the experiments).
func genFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ig, _ := gen.IntervalGraph(rng, 60, 3)
	lb, err := gen.LanewidthGraph(rng, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":        graph.PathGraph(48),
		"cycle":       graph.CycleGraph(33),
		"caterpillar": gen.Caterpillar(10, 2),
		"lobster":     gen.Lobster(8, 1),
		"ladder":      gen.Ladder(9),
		"grid":        gen.Grid(4, 5),
		"binarytree":  gen.BinaryTree(4),
		"interval":    ig,
		"lanewidth":   lb.Graph(),
		"spiderfree":  gen.SpiderFreeCaterpillar(rng, 30),
	}
}

// naiveEmbed is the pre-optimization reference: one full BFS per virtual
// edge via g.Path.
func naiveEmbed(t *testing.T, g *graph.Graph, c *lanes.Completion) lanes.Embedding {
	t.Helper()
	emb := make(lanes.Embedding, len(c.Virtual))
	for _, ve := range c.Virtual {
		path := g.Path(ve.U, ve.V)
		if path == nil {
			t.Fatalf("reference: no path for virtual edge %v", ve)
		}
		emb[ve] = path
	}
	return emb
}

// requireNaive asserts got holds exactly the naive reference's path for
// every virtual edge of c, and nothing else.
func requireNaive(t *testing.T, where string, g *graph.Graph, c *lanes.Completion, got lanes.Embedding) {
	t.Helper()
	want := naiveEmbed(t, g, c)
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, reference has %d", where, len(got), len(want))
	}
	for ve, wp := range want {
		gp, ok := got[ve]
		if !ok {
			t.Fatalf("%s: virtual edge %v missing", where, ve)
		}
		if len(gp) != len(wp) {
			t.Fatalf("%s: %v path %v, reference %v", where, ve, gp, wp)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("%s: %v path %v, reference %v", where, ve, gp, wp)
			}
		}
	}
	if err := got.Validate(g, c); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// nonEdge returns the first vertex pair (in index order) that is not an
// edge of g, skipping immediate neighbours in index order.
func nonEdge(t *testing.T, g *graph.Graph) (graph.Vertex, graph.Vertex) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for v := u + 2; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

// TestEmbedShortestPathsMatchesNaiveReference pins the embedding to the
// naive reference on every family, at one and two workers, both from
// scratch and re-embedded from the previous embedding after an edge is
// added and removed again (the retained partition stays valid for
// completion, and adding an edge keeps the graph connected).
func TestEmbedShortestPathsMatchesNaiveReference(t *testing.T) {
	for name, g := range genFamilies(t) {
		t.Run(name, func(t *testing.T) {
			pd, err := interval.Decompose(g)
			if err != nil {
				t.Fatal(err)
			}
			r := pd.ToIntervals(g.N())
			p := lanes.Greedy(r)
			u, v := nonEdge(t, g)
			for _, weak := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					where := fmt.Sprintf("weak=%v workers=%d", weak, workers)
					edited := g.Clone()
					c := lanes.Complete(edited, p, weak)
					te, err := lanes.Embed(edited, c, nil, nil, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireNaive(t, where+" fresh", edited, c, te.Emb)
					if len(c.Virtual) > 0 && te.Sources() == 0 {
						t.Fatalf("%s: no sources recorded", where)
					}
					if te.Reused() != 0 {
						t.Fatalf("%s: fresh embedding reused %d sources", where, te.Reused())
					}

					edited.MustAddEdge(u, v)
					c = lanes.Complete(edited, p, weak)
					te, err = lanes.Embed(edited, c, te, []graph.Vertex{u, v}, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireNaive(t, where+" after add", edited, c, te.Emb)

					if err := edited.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
					c = lanes.Complete(edited, p, weak)
					te, err = lanes.Embed(edited, c, te, []graph.Vertex{u, v}, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireNaive(t, where+" after remove", edited, c, te.Emb)
				}
			}
		})
	}
}
