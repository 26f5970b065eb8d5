package certify

import (
	"context"
	"errors"
	"flag"
	"slices"
	"testing"

	"repro/internal/interval"
)

// completenessMaxN is the largest vertex count
// TestCompletenessAgainstGroundTruth enumerates. The default, 5, covers
// 771 graphs in a few seconds; -completeness-max-n 6 adds the 26,704
// connected labelled graphs on 6 vertices (minutes; a CI step runs it).
var completenessMaxN = flag.Int("completeness-max-n", 5, "largest vertex count TestCompletenessAgainstGroundTruth enumerates")

// completenessProps are the catalog properties checked against ground
// truth on every small graph.
var completenessProps = []string{"bipartite", "3color", "acyclic", "matching", "hamiltonian", "evenedges", "maxdeg:2", "vc:2"}

// connectedGraphs calls f with the edge list of every connected labelled
// graph on n ≥ 2 vertices: every subset of the n(n−1)/2 vertex pairs,
// in the order of its bit mask, that connects all n vertices.
func connectedGraphs(n int, f func(edges [][2]int)) {
	var pairs [][2]int
	for u := range n {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	var edges [][2]int
	for mask := 1; mask < 1<<len(pairs); mask++ {
		edges = edges[:0]
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				edges = append(edges, p)
			}
		}
		if connected(n, edges) {
			f(edges)
		}
	}
}

// connected reports whether the edges connect all n vertices.
func connected(n int, edges [][2]int) bool {
	reached := make([]bool, n)
	reached[0] = true
	for grew := true; grew; {
		grew = false
		for _, e := range edges {
			if reached[e[0]] != reached[e[1]] {
				reached[e[0]], reached[e[1]] = true, true
				grew = true
			}
		}
	}
	return !slices.Contains(reached, false)
}

// TestCompletenessAgainstGroundTruth checks completeness against ground
// truth through the wire. On every connected labelled graph with 2 to
// -completeness-max-n vertices, each catalog property is proved under a
// lane budget of the graph's exact pathwidth plus one: it must be
// certified exactly when ModelCheck says it holds, and every certificate
// must survive MarshalBinary → UnmarshalBinary and then verify in a fresh
// Certifier. Under a budget of the pathwidth itself, every prove must fail
// with ErrTooWide.
func TestCompletenessAgainstGroundTruth(t *testing.T) {
	ps, err := PropertiesByName(completenessProps...)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 2; n <= *completenessMaxN; n++ {
		graphs, certified := 0, 0
		connectedGraphs(n, func(edges [][2]int) {
			graphs++
			g, err := FromEdges(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			pw, _, err := interval.ExactPathwidth(g.g)
			if err != nil {
				t.Fatal(err)
			}
			narrow, err := New(WithProperties(ps...), WithMaxLanes(pw), WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := narrow.ProveBatch(ctx, g); !errors.Is(err, ErrTooWide) {
				t.Fatalf("%v (pathwidth %d) under %d lanes: %v, want ErrTooWide", edges, pw, pw, err)
			}
			c, err := New(WithProperties(ps...), WithMaxLanes(pw+1), WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			crt, bst, err := c.ProveBatch(ctx, g)
			if err != nil {
				t.Fatalf("%v (pathwidth %d) under %d lanes: %v", edges, pw, pw+1, err)
			}
			for _, p := range ps {
				holds, supported := ModelCheck(g, p)
				if !supported {
					t.Fatalf("%s has no ground truth", p.Name())
				}
				if proved := !slices.Contains(bst.Failed, p.Name()); proved != holds {
					t.Fatalf("%v: %s proved %v, ModelCheck says %v", edges, p.Name(), proved, holds)
				}
			}
			if crt == nil {
				return
			}
			certified += len(crt.Properties())
			blob, err := crt.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Certificate
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%v: %v", edges, err)
			}
			if err := verifier.Verify(ctx, g, &back); err != nil {
				t.Fatalf("%v: the decoded certificate for %v: %v", edges, back.Properties(), err)
			}
		})
		t.Logf("n=%d: %d connected graphs, %d of %d property certificates issued and verified",
			n, graphs, certified, graphs*len(ps))
	}
}
