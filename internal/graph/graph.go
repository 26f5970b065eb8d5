// Package graph provides the undirected-graph substrate used throughout the
// library: adjacency storage, traversal, spanning trees, degeneracy
// orientations, and small-graph isomorphism/minor testing.
//
// Vertices are dense integers 0..N()-1. Distributed identifiers (the
// O(log n)-bit IDs of the proof-labeling-scheme model) are layered on top by
// package cert; the algorithmic substrate works with dense indices.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
)

// Vertex is a dense vertex index in 0..N()-1.
type Vertex = int

// Edge is an undirected edge with normalized endpoints (U < V).
type Edge struct {
	U, V Vertex
}

// NewEdge returns the normalized edge {u, v}.
func NewEdge(u, v Vertex) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not w.
// It returns -1 if w is not an endpoint of e.
func (e Edge) Other(w Vertex) Vertex {
	switch w {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// Has reports whether w is an endpoint of e.
func (e Edge) Has(w Vertex) bool { return e.U == w || e.V == w }

func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// CompareEdges orders edges by endpoints, U first: the deterministic order
// of Edges, and the canonical edge order of certificates.
func CompareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// ErrVertexRange is returned when an operation references a vertex outside
// 0..N()-1.
var ErrVertexRange = errors.New("graph: vertex out of range")

// Graph is a simple undirected graph on vertices 0..n-1.
// The zero value is an empty graph with no vertices.
type Graph struct {
	n   int
	adj [][]Vertex
	set map[Edge]struct{}

	// sorted caches the deterministic edge order behind Edges/EdgesSeq;
	// AddEdge and RemoveEdge invalidate it, so repeated reads between
	// mutations cost O(1) instead of O(m log m). The cache is an atomic
	// pointer so that any number of goroutines may read a quiescent graph
	// concurrently (the service workload: one stored graph, many
	// prove/verify requests); mutation remains single-threaded by contract.
	sorted atomic.Pointer[[]Edge]

	// gen counts successful mutations. Derived structures (path
	// decompositions, structural proofs) record the generation they were
	// built against and refuse to operate on a graph that moved on, turning
	// silent staleness into an error.
	gen uint64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{
		n:   n,
		adj: make([][]Vertex, n),
		set: make(map[Edge]struct{}),
	}
}

// FromEdges builds a graph on n vertices with the given edges.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.set) }

// Generation returns the mutation counter: it increments on every
// successful AddVertex, AddEdge, or RemoveEdge. Two reads returning the
// same value bracket a window with no structural mutations.
func (g *Graph) Generation() uint64 { return g.gen }

// AddVertex appends a fresh vertex and returns its index.
func (g *Graph) AddVertex() Vertex {
	g.adj = append(g.adj, nil)
	g.n++
	g.gen++
	return g.n - 1
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with an error.
func (g *Graph) AddEdge(u, v Vertex) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	e := NewEdge(u, v)
	if _, ok := g.set[e]; ok {
		return fmt.Errorf("graph: duplicate edge %v", e)
	}
	g.set[e] = struct{}{}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.sorted.Store(nil)
	g.gen++
	return nil
}

// MustAddEdge is AddEdge for construction code paths where the caller
// guarantees validity (e.g. generators); it panics on error.
func (g *Graph) MustAddEdge(u, v Vertex) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v}. Out-of-range endpoints,
// self-loops, and absent edges are rejected with an error, mirroring
// AddEdge's validation discipline. Adjacency order of the remaining
// neighbors is preserved, so deterministic traversals over untouched
// vertices are unaffected.
func (g *Graph) RemoveEdge(u, v Vertex) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	e := NewEdge(u, v)
	if _, ok := g.set[e]; !ok {
		return fmt.Errorf("graph: missing edge %v", e)
	}
	delete(g.set, e)
	g.adj[u] = removeFirst(g.adj[u], v)
	g.adj[v] = removeFirst(g.adj[v], u)
	g.sorted.Store(nil)
	g.gen++
	return nil
}

// removeFirst deletes the first occurrence of w from nbrs, preserving the
// order of the remaining entries.
func removeFirst(nbrs []Vertex, w Vertex) []Vertex {
	for i, x := range nbrs {
		if x == w {
			return append(nbrs[:i], nbrs[i+1:]...)
		}
	}
	return nbrs
}

// AdjSnapshot captures the exact adjacency lists of a set of vertices so an
// edit batch among them can be rolled back without perturbing neighbor
// order. Re-adding a removed edge appends to the endpoint lists, so a naive
// reverse-replay restores the edge set but permutes adjacency order — and
// order-sensitive deterministic traversals (BFS tie-breaking) would then
// diverge from structures derived before the rollback. Restoring the
// snapshot puts the lists back verbatim.
type AdjSnapshot struct {
	adj map[Vertex][]Vertex
}

// SnapshotAdj copies the adjacency lists of vs (duplicates are fine). A later
// RestoreAdj undoes exactly the edge mutations whose endpoints both lie in
// vs; edges with at most one snapshotted endpoint must not change between
// snapshot and restore.
func (g *Graph) SnapshotAdj(vs []Vertex) (*AdjSnapshot, error) {
	s := &AdjSnapshot{adj: make(map[Vertex][]Vertex, len(vs))}
	for _, v := range vs {
		if v < 0 || v >= g.n {
			return nil, fmt.Errorf("%w: %d with n=%d", ErrVertexRange, v, g.n)
		}
		if _, ok := s.adj[v]; ok {
			continue
		}
		s.adj[v] = append([]Vertex(nil), g.adj[v]...)
	}
	return s, nil
}

// RestoreAdj reverts the adjacency lists captured by s — order included —
// and reconciles the edge set for every pair of snapshotted vertices.
// Restoring counts as a mutation: the generation advances and the
// sorted-edge cache is invalidated, even when the restored content is
// identical to the current content.
func (g *Graph) RestoreAdj(s *AdjSnapshot) {
	for v := range s.adj {
		for _, w := range g.adj[v] {
			if _, ok := s.adj[w]; ok {
				delete(g.set, NewEdge(v, w))
			}
		}
	}
	for v, nbrs := range s.adj {
		g.adj[v] = append([]Vertex(nil), nbrs...)
		for _, w := range nbrs {
			if _, ok := s.adj[w]; ok {
				g.set[NewEdge(v, w)] = struct{}{}
			}
		}
	}
	g.sorted.Store(nil)
	g.gen++
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v Vertex) bool {
	_, ok := g.set[NewEdge(u, v)]
	return ok
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int { return len(g.adj[v]) }

// Edges returns all edges in deterministic (sorted) order. The returned
// slice is the caller's to keep: mutating or re-sorting it cannot corrupt
// the graph's internal cache.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.sortedEdges()...)
}

// EdgesSeq iterates the edges in the same deterministic order as Edges
// without copying the cached slice — the allocation-free form for read-only
// sweeps on hot paths.
func (g *Graph) EdgesSeq() iter.Seq[Edge] {
	sorted := g.sortedEdges()
	return func(yield func(Edge) bool) {
		for _, e := range sorted {
			if !yield(e) {
				return
			}
		}
	}
}

// sortedEdges returns the cached sorted edge slice, building it on first
// use. Concurrent readers may race to build it; both compute the identical
// slice and the atomic publish keeps every reader on a fully built one.
func (g *Graph) sortedEdges() []Edge {
	if p := g.sorted.Load(); p != nil {
		return *p
	}
	out := make([]Edge, 0, len(g.set))
	for e := range g.set {
		out = append(out, e)
	}
	slices.SortFunc(out, CompareEdges)
	g.sorted.Store(&out)
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for e := range g.set {
		c.set[e] = struct{}{}
	}
	for v, nbrs := range g.adj {
		c.adj[v] = append([]Vertex(nil), nbrs...)
	}
	c.gen = g.gen
	return c
}

// InducedSubgraph returns the subgraph induced by keep, along with the map
// from old vertex indices to new ones (absent vertices map to -1).
func (g *Graph) InducedSubgraph(keep []Vertex) (*Graph, []int) {
	remap := make([]int, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range keep {
		remap[v] = i
	}
	sub := New(len(keep))
	for e := range g.set {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			sub.MustAddEdge(remap[e.U], remap[e.V])
		}
	}
	return sub, remap
}

// EdgeSubgraph returns a graph on the same vertex set containing only the
// given edges.
func (g *Graph) EdgeSubgraph(edges []Edge) *Graph {
	sub := New(g.n)
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			continue
		}
		if !sub.HasEdge(e.U, e.V) {
			sub.MustAddEdge(e.U, e.V)
		}
	}
	return sub
}

func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.M())
}
