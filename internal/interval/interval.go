// Package interval implements interval representations and path
// decompositions of graphs (Definitions 1.1 and 4.1 of the paper), including
// width computation, validation, conversions between the two views, and
// pathwidth computation (exact for small graphs, heuristic for larger ones).
package interval

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Interval is a closed integer interval [L, R].
type Interval struct {
	L, R int
}

// Empty reports whether the interval is empty (L > R).
func (iv Interval) Empty() bool { return iv.L > iv.R }

// Overlaps reports whether iv and other intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.L <= other.R && other.L <= iv.R
}

// Before reports iv ≺ other: iv ends strictly before other begins.
func (iv Interval) Before(other Interval) bool { return iv.R < other.L }

// Contains reports whether x ∈ [L, R].
func (iv Interval) Contains(x int) bool { return iv.L <= x && x <= iv.R }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.L, iv.R) }

// Representation assigns an interval to each vertex of a graph
// (Definition 4.1): Ivs[v] is the interval of vertex v.
type Representation struct {
	Ivs []Interval
}

// NewRepresentation returns a representation for n vertices with all
// intervals unset (empty).
func NewRepresentation(n int) *Representation {
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = Interval{L: 1, R: 0} // empty until assigned
	}
	return &Representation{Ivs: ivs}
}

// N returns the number of vertices covered.
func (r *Representation) N() int { return len(r.Ivs) }

// Validate checks that r is an interval representation of g: every vertex
// has a non-empty interval and the intervals of every edge's endpoints
// intersect.
func (r *Representation) Validate(g *graph.Graph) error {
	if len(r.Ivs) != g.N() {
		return fmt.Errorf("interval: representation covers %d vertices, graph has %d", len(r.Ivs), g.N())
	}
	for v, iv := range r.Ivs {
		if iv.Empty() {
			return fmt.Errorf("interval: vertex %d has empty interval", v)
		}
	}
	for e := range g.EdgesSeq() {
		if !r.Ivs[e.U].Overlaps(r.Ivs[e.V]) {
			return fmt.Errorf("interval: edge %v endpoints have disjoint intervals %v, %v",
				e, r.Ivs[e.U], r.Ivs[e.V])
		}
	}
	return nil
}

// Width returns the maximum number of intervals sharing a common point
// (Definition 4.1). A graph has pathwidth k iff it has an interval
// representation of width k+1.
func (r *Representation) Width() int {
	type event struct {
		x    int
		open bool
	}
	events := make([]event, 0, 2*len(r.Ivs))
	for _, iv := range r.Ivs {
		if iv.Empty() {
			continue
		}
		events = append(events, event{iv.L, true}, event{iv.R, false})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].x != events[j].x {
			return events[i].x < events[j].x
		}
		// Opens before closes at the same coordinate: closed intervals
		// meeting at a point do intersect.
		return events[i].open && !events[j].open
	})
	cur, best := 0, 0
	for _, ev := range events {
		if ev.open {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur--
		}
	}
	return best
}

// MaxCoord returns the largest right endpoint across all intervals
// (0 if none).
func (r *Representation) MaxCoord() int {
	best := 0
	for _, iv := range r.Ivs {
		if !iv.Empty() && iv.R > best {
			best = iv.R
		}
	}
	return best
}

// MinCoord returns the smallest left endpoint across all intervals
// (0 if none).
func (r *Representation) MinCoord() int {
	if len(r.Ivs) == 0 {
		return 0
	}
	best := r.Ivs[0].L
	for _, iv := range r.Ivs {
		if !iv.Empty() && iv.L < best {
			best = iv.L
		}
	}
	return best
}

// Union returns the smallest interval covering all of the given vertices'
// intervals. It panics if the set is empty.
func (r *Representation) Union(vs []graph.Vertex) Interval {
	out := r.Ivs[vs[0]]
	for _, v := range vs[1:] {
		iv := r.Ivs[v]
		if iv.L < out.L {
			out.L = iv.L
		}
		if iv.R > out.R {
			out.R = iv.R
		}
	}
	return out
}
