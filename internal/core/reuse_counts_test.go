package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
)

// reuseCounts is the reuse accounting of one incremental update, or the
// error class of a rejected one.
type reuseCounts struct {
	DirtyOps                    int
	ReusedEntries, TotalEntries int
	ReusedLabels, TotalLabels   int
	ReusedSources, TotalSources int
	Fallback, Rejected          bool
}

// reuseStep is one edit batch of a pinned script and the counts it yields.
type reuseStep struct {
	edits []Edit
	want  reuseCounts
}

// runReuseScript applies the script's batches in order on an engine over g
// and requires every update's reuse accounting to equal the pinned counts,
// at parallelism 1 and 2.
func runReuseScript(t *testing.T, build func() *graph.Graph, props []algebra.Property, maxLanes int, script func(g *graph.Graph) []reuseStep) {
	t.Helper()
	for _, parallelism := range []int{1, 2} {
		g := build()
		steps := script(g)
		inc, err := NewIncremental(context.Background(), cert.NewConfig(g), props, nil,
			IncrementalOptions{MaxLanes: maxLanes, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("NewIncremental: %v", err)
		}
		for i, st := range steps {
			var got reuseCounts
			us, err := inc.UpdateBatch(context.Background(), st.edits)
			if err != nil {
				got.Rejected = true
			} else {
				got = reuseCounts{
					DirtyOps:      us.DirtyOps,
					ReusedEntries: us.ReusedEntries, TotalEntries: us.TotalEntries,
					ReusedLabels: us.ReusedLabels, TotalLabels: us.TotalLabels,
					ReusedSources: us.ReusedSources, TotalSources: us.TotalSources,
					Fallback: us.Fallback,
				}
			}
			if got != st.want {
				t.Errorf("parallelism %d, step %d %v: got %+v, want %+v", parallelism, i, st.edits, got, st.want)
			}
		}
	}
}

// TestIncrementalReuseCountsPinned pins the exact reuse accounting of fixed
// edit scripts: how many transcript ops each update dirties and how many
// entries, labels and embedding sources it carries over. Byte identity with
// a fresh prove (TestIncrementalDifferential) holds whatever is reused, so
// only these counts show a change to the carry-over rules that makes an
// update re-derive more than before.
func TestIncrementalReuseCountsPinned(t *testing.T) {
	t.Run("ladder", func(t *testing.T) {
		const k = 256
		rung := func(i int) (graph.Vertex, graph.Vertex) { return graph.Vertex(2 * i), graph.Vertex(2*i + 1) }
		tu, tv := rung(k - 2)
		mu, mv := rung(k / 2)
		hu, hv := rung(1)
		props := []algebra.Property{algebra.Colorable{Q: 2}, algebra.MaxDegreeAtMost{D: 3}}
		runReuseScript(t, func() *graph.Graph { return gen.Ladder(k) }, props, 4, func(*graph.Graph) []reuseStep {
			return []reuseStep{
				{[]Edit{{EditRemove, tu, tv}}, rc(5, 3674, 4076, 754, 1530, 505, 509)},
				{[]Edit{{EditAdd, tu, tv}}, rc(6, 3674, 4078, 754, 1532, 505, 509)},
				{[]Edit{{EditRemove, mu, mv}}, rc(635, 2038, 4076, 752, 1530, 501, 509)},
				{[]Edit{{EditAdd, mu, mv}}, rc(636, 2038, 4078, 752, 1532, 501, 509)},
				{[]Edit{{EditRemove, hu, hv}}, rc(1270, 7, 4076, 0, 1530, 502, 509)},
				{[]Edit{{EditAdd, hu, hv}}, rc(1271, 7, 4078, 0, 1532, 502, 509)},
				{[]Edit{{EditRemove, tu, tv}, {EditRemove, hu, hv}}, rc(1269, 7, 4070, 0, 1528, 498, 509)},
				{[]Edit{{EditAdd, hu, hv}, {EditAdd, tu, tv}}, rc(1271, 7, 4078, 0, 1532, 498, 509)},
			}
		})
	})
	t.Run("interval", func(t *testing.T) {
		build := func() *graph.Graph {
			g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), 300, 3)
			return g
		}
		props := []algebra.Property{algebra.Colorable{Q: 3}}
		want := []reuseCounts{
			rc(629, 26, 1016, 0, 350, 266, 281), rc(630, 26, 1018, 0, 351, 266, 281),
			rc(330, 496, 1016, 167, 350, 267, 281), rc(331, 496, 1018, 167, 351, 267, 281),
			rc(36, 962, 1017, 326, 350, 271, 281), rc(37, 962, 1018, 326, 351, 271, 281),
			rc(399, 393, 1020, 131, 352, 266, 281), rc(398, 393, 1018, 131, 351, 266, 281),
		}
		runReuseScript(t, build, props, 8, func(g *graph.Graph) []reuseStep {
			var edits [][]Edit
			for _, at := range []int{10, g.M() / 2, g.M() - 20} {
				e := triangleEdgeFrom(g, at)
				edits = append(edits, []Edit{{EditRemove, e.U, e.V}}, []Edit{{EditAdd, e.U, e.V}})
			}
			// A chord the decomposition covers: added, then removed again.
			c := coveredChordFrom(t, g, g.N()/3)
			edits = append(edits, []Edit{{EditAdd, c.U, c.V}}, []Edit{{EditRemove, c.U, c.V}})
			steps := make([]reuseStep, len(edits))
			for i := range edits {
				steps[i] = reuseStep{edits[i], want[i]}
			}
			return steps
		})
	})
}

// rc spells the counts of an incremental (non-fallback) update.
func rc(dirty, reusedEntries, entries, reusedLabels, labels, reusedSources, sources int) reuseCounts {
	return reuseCounts{dirty, reusedEntries, entries, reusedLabels, labels, reusedSources, sources, false, false}
}

// coveredChordFrom returns the first non-edge {u, u+2} with u ≥ from whose
// endpoints share a bag of the graph's computed decomposition, the one a
// fresh engine retains, so adding it takes the incremental path.
func coveredChordFrom(t *testing.T, g *graph.Graph, from int) graph.Edge {
	t.Helper()
	pd, err := interval.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	r := pd.ToIntervals(g.N())
	for u := graph.Vertex(from); u+2 < g.N(); u++ {
		if v := u + 2; !g.HasEdge(u, v) && r.Ivs[u].Overlaps(r.Ivs[v]) {
			return graph.NewEdge(u, v)
		}
	}
	t.Fatalf("no covered chord at or after %d", from)
	return graph.Edge{}
}

// triangleEdgeFrom returns the first edge at or after position at of the
// graph's edge order whose endpoints share a neighbour, so removing it
// keeps the graph connected.
func triangleEdgeFrom(g *graph.Graph, at int) graph.Edge {
	i := 0
	for e := range g.EdgesSeq() {
		if i >= at {
			for _, w := range g.Neighbors(e.U) {
				if w != e.V && g.HasEdge(w, e.V) {
					return e
				}
			}
		}
		i++
	}
	panic(fmt.Sprintf("no triangle edge at or after %d", at))
}
