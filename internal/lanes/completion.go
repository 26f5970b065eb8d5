package lanes

import (
	"fmt"

	"repro/internal/graph"
)

// Completion is the result of completing a k-lane partition
// (Definition 4.4): the original graph plus the lane edges E1 (consecutive
// vertices in each lane) and, for the full completion, the initial-vertex
// edges E2 (a path through the first vertex of every lane).
type Completion struct {
	// Graph is the completed graph (V, E ∪ E1 ∪ E2) — or (V, E ∪ E1) for a
	// weak completion.
	Graph *graph.Graph
	// Virtual lists the completion edges not present in the original graph;
	// these are the edges that must be embedded as paths for certification.
	Virtual []graph.Edge
	// E1 and E2 are the raw edge sets of Definition 4.4 (possibly
	// overlapping the original edge set).
	E1, E2 []graph.Edge
	// Weak reports whether E2 was omitted.
	Weak bool
}

// Complete builds the completion (or weak completion) of (g, P) per
// Definition 4.4.
func Complete(g *graph.Graph, p *Partition, weak bool) *Completion {
	c := &Completion{Graph: g.Clone(), Weak: weak}
	add := func(u, v graph.Vertex, dst *[]graph.Edge) {
		e := graph.NewEdge(u, v)
		*dst = append(*dst, e)
		if !c.Graph.HasEdge(u, v) {
			c.Graph.MustAddEdge(u, v)
			c.Virtual = append(c.Virtual, e)
		}
	}
	for _, lane := range p.Lanes {
		for j := 0; j+1 < len(lane); j++ {
			add(lane[j], lane[j+1], &c.E1)
		}
	}
	if !weak {
		for li := 0; li+1 < len(p.Lanes); li++ {
			add(p.Lanes[li][0], p.Lanes[li+1][0], &c.E2)
		}
	}
	return c
}

// Embedding assigns to each virtual edge a path in the original graph
// between its endpoints (Definition 4.5). Paths are vertex sequences
// inclusive of both endpoints.
type Embedding map[graph.Edge][]graph.Vertex

// Congestion returns the maximum number of embedding paths any single
// original edge participates in.
func (emb Embedding) Congestion() int {
	counts := make(map[graph.Edge]int)
	for _, path := range emb {
		for _, e := range graph.PathEdges(path) {
			counts[e]++
		}
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return best
}

// Validate checks that emb embeds exactly the virtual edges of c into g:
// every virtual edge has a path, every path is a walk in g between the
// virtual edge's endpoints using only original edges.
func (emb Embedding) Validate(g *graph.Graph, c *Completion) error {
	for _, ve := range c.Virtual {
		path, ok := emb[ve]
		if !ok {
			return fmt.Errorf("lanes: virtual edge %v has no embedding path", ve)
		}
		if len(path) < 2 {
			return fmt.Errorf("lanes: virtual edge %v has degenerate path %v", ve, path)
		}
		if graph.NewEdge(path[0], path[len(path)-1]) != ve {
			return fmt.Errorf("lanes: path for %v connects %d-%d", ve, path[0], path[len(path)-1])
		}
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				return fmt.Errorf("lanes: path for %v uses non-edge {%d,%d}", ve, path[i], path[i+1])
			}
		}
	}
	// Every virtual edge has a path and Virtual lists each edge once, so any
	// surplus path belongs to a non-virtual edge.
	if len(emb) != len(c.Virtual) {
		return fmt.Errorf("lanes: embedding has %d paths for %d virtual edges", len(emb), len(c.Virtual))
	}
	return nil
}

// groupBySource batches virtual edges by their smaller endpoint (the
// normalized U), the source of the truncated BFS that answers them.
func groupBySource(virtual []graph.Edge) map[graph.Vertex][]graph.Edge {
	bySource := make(map[graph.Vertex][]graph.Edge)
	for _, ve := range virtual {
		bySource[ve.U] = append(bySource[ve.U], ve)
	}
	return bySource
}

// embedScratch is the reusable truncated-BFS state shared by all sources one
// worker of an embedding pass handles. Epoch stamps avoid per-source O(n)
// clearing.
type embedScratch struct {
	parent []graph.Vertex
	seen   []int // BFS visit stamp
	wanted []int // target stamp for the current batch
	queue  []graph.Vertex
	epoch  int
}

func newEmbedScratch(n int) *embedScratch {
	return &embedScratch{
		parent: make([]graph.Vertex, n),
		seen:   make([]int, n),
		wanted: make([]int, n),
		queue:  make([]graph.Vertex, 0, n),
	}
}

// run answers every virtual edge of one source batch, writing the extracted
// shortest paths into emb. The per-source result depends only on the target
// set and the adjacency of the vertices the BFS visits, which is what makes
// per-source reuse across edits sound (see TrackedEmbedding). The returned
// slice is the BFS queue at termination — exactly the set of seen vertices,
// source included — and is only valid until the next run call.
func (sc *embedScratch) run(g *graph.Graph, src graph.Vertex, ves []graph.Edge, emb Embedding) ([]graph.Vertex, error) {
	sc.epoch++
	epoch := sc.epoch
	missing := 0
	for _, ve := range ves {
		if sc.wanted[ve.V] != epoch {
			sc.wanted[ve.V] = epoch
			missing++
		}
	}
	sc.seen[src] = epoch
	sc.parent[src] = src
	sc.queue = append(sc.queue[:0], src)
	if sc.wanted[src] == epoch {
		missing-- // degenerate, cannot happen for simple edges
	}
	for head := 0; head < len(sc.queue) && missing > 0; head++ {
		v := sc.queue[head]
		for _, w := range g.Neighbors(v) {
			if sc.seen[w] == epoch {
				continue
			}
			sc.seen[w] = epoch
			sc.parent[w] = v
			sc.queue = append(sc.queue, w)
			if sc.wanted[w] == epoch {
				missing--
			}
		}
	}
	for _, ve := range ves {
		if sc.seen[ve.V] != epoch {
			return nil, fmt.Errorf("lanes: no path for virtual edge %v", ve)
		}
		var rev []graph.Vertex
		for w := ve.V; w != src; w = sc.parent[w] {
			rev = append(rev, w)
		}
		rev = append(rev, src)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		emb[ve] = rev
	}
	return sc.queue, nil
}

// OrientedPath returns e's embedding path oriented to start at e.U. Paths
// are stored in arbitrary orientation; certification ranks the path's real
// edges relative to a fixed endpoint, so consumers need a deterministic
// orientation. Returns nil when e has no path.
func (emb Embedding) OrientedPath(e graph.Edge) []graph.Vertex {
	path := emb[e]
	if len(path) == 0 {
		return nil
	}
	if path[0] == e.U {
		return path
	}
	rev := make([]graph.Vertex, len(path))
	for i, v := range path {
		rev[len(path)-1-i] = v
	}
	return rev
}
