package msoc

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/mso"
)

// Brute-force limits for Base. Payloads are V-, E- and P-node graphs, so
// they have at most one vertex per lane (plus one), far below these caps;
// the caps keep a hostile caller from requesting 2^n set enumerations.
const (
	maxBaseVertices = 16
	maxBaseEdges    = 16
	maxBoundary     = 60
)

// bindKind says how a formula variable meets the current part.
type bindKind uint8

const (
	bkSym    bindKind = iota + 1 // an unnamed boundary constant (symbolic, by level)
	bkVertex                     // an internal (non-boundary) local vertex
	bkEdge                       // a local real edge (index into edges)
	bkVSet                       // a local vertex-set restriction (mask)
	bkESet                       // a local edge-set restriction (mask)
	bkExtV                       // ⊥: a vertex outside this part
	bkExtE                       // ⊥: an edge outside this part
)

type bind struct {
	kind bindKind
	idx  int // quantifier level (bkSym) or edge index (bkEdge)
	v    graph.Vertex
	set  uint64
}

type baseCtx struct {
	p        *Prop
	g        *graph.Graph // real subgraph of the payload
	boundary []graph.Vertex
	constOf  []int // vertex -> constant index, -1 if internal
	edges    []graph.Edge
	env      map[string]bind
	vlvl     int // next vertex-quantifier level
	err      error
}

// Base implements algebra.Property: the characteristic tree of an explicit
// boundaried payload, computed by direct enumeration. Only the real
// subgraph is the structure — virtual completion edges are invisible to
// the property, per the package convention. A vertex quantifier's boundary
// branch is built once, symbolically: every atom that touches the variable
// defers to the eventual constant via a vector leaf, so the subtree is the
// same no matter which constant — or fusion of constants — the variable
// ends up denoting.
func (p *Prop) Base(bg *algebra.BGraph, boundary []graph.Vertex) (algebra.Table, error) {
	g := bg.RealSubgraph()
	n := g.N()
	if n > maxBaseVertices {
		return nil, fmt.Errorf("msoc: base payload has %d vertices, limit %d", n, maxBaseVertices)
	}
	if len(boundary) > maxBoundary {
		return nil, fmt.Errorf("msoc: boundary width %d exceeds limit %d", len(boundary), maxBoundary)
	}
	constOf := make([]int, n)
	for i := range constOf {
		constOf[i] = -1
	}
	for i, v := range boundary {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("msoc: boundary vertex %d out of range", v)
		}
		if constOf[v] >= 0 {
			return nil, fmt.Errorf("msoc: duplicate boundary vertex %d", v)
		}
		constOf[v] = i
	}
	edges := g.Edges() // sorted
	if len(edges) > maxBaseEdges {
		return nil, fmt.Errorf("msoc: base payload has %d edges, limit %d", len(edges), maxBaseEdges)
	}
	c := &baseCtx{p: p, g: g, boundary: boundary, constOf: constOf, edges: edges, env: map[string]bind{}}
	root := c.build(p.f)
	if c.err != nil {
		return nil, c.err
	}
	m := make([]uint64, len(boundary))
	for _, e := range edges {
		i, j := constOf[e.U], constOf[e.V]
		if i >= 0 && j >= 0 {
			m[i] |= 1 << uint(j)
			m[j] |= 1 << uint(i)
		}
	}
	t := p.newTable(len(boundary), m, root)
	return t, nil
}

func (c *baseCtx) fail(format string, args ...any) *node {
	if c.err == nil {
		c.err = fmt.Errorf("msoc: "+format, args...)
	}
	return c.p.nBool(false)
}

func (c *baseCtx) build(f mso.Formula) *node {
	if c.err != nil {
		return c.p.nBool(false)
	}
	switch f := f.(type) {
	case mso.Exists:
		return c.quant(opExists, f.Var, f.Sort, f.Body)
	case mso.Forall:
		return c.quant(opForall, f.Var, f.Sort, f.Body)
	case mso.Not:
		return c.p.nConn(opNot, c.build(f.F))
	case mso.And:
		return c.p.nConn(opAnd, c.build(f.L), c.build(f.R))
	case mso.Or:
		return c.p.nConn(opOr, c.build(f.L), c.build(f.R))
	case mso.Implies:
		return c.p.nConn(opImplies, c.build(f.L), c.build(f.R))
	case mso.Iff:
		return c.p.nConn(opIff, c.build(f.L), c.build(f.R))
	case mso.InSet:
		return c.atomInSet(f)
	case mso.Inc:
		return c.atomInc(f)
	case mso.Adj:
		return c.atomAdj(f)
	case mso.Eq:
		return c.atomEq(f)
	default:
		return c.fail("unknown formula node %T", f)
	}
}

func (c *baseCtx) quant(o op, name string, srt mso.Sort, body mso.Formula) *node {
	old, had := c.env[name]
	defer func() {
		if had {
			c.env[name] = old
		} else {
			delete(c.env, name)
		}
	}()
	switch srt {
	case mso.VertexSort:
		lvl := c.vlvl
		c.vlvl++
		c.env[name] = bind{kind: bkSym, idx: lvl}
		sym := c.build(body)
		var others []*node
		for v := 0; v < c.g.N(); v++ {
			if c.constOf[v] >= 0 {
				continue
			}
			c.env[name] = bind{kind: bkVertex, v: graph.Vertex(v)}
			others = append(others, c.build(body))
		}
		c.env[name] = bind{kind: bkExtV}
		bot := c.build(body)
		c.vlvl--
		return c.p.nQuantV(o, lvl, sym, others, bot)
	case mso.EdgeSort:
		var others []*node
		for i := range c.edges {
			c.env[name] = bind{kind: bkEdge, idx: i}
			others = append(others, c.build(body))
		}
		c.env[name] = bind{kind: bkExtE}
		bot := c.build(body)
		return c.p.nQuantE(o, others, bot)
	case mso.VertexSetSort:
		n := c.g.N()
		entries := make([]setEntry, 0, 1<<uint(n))
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			c.env[name] = bind{kind: bkVSet, set: mask}
			sub := c.build(body)
			var proj uint64
			for i, v := range c.boundary {
				if mask>>uint(v)&1 == 1 {
					proj |= 1 << uint(i)
				}
			}
			entries = append(entries, setEntry{mask: proj, sub: sub})
		}
		return c.p.nQuantSet(o, qVSet, entries)
	case mso.EdgeSetSort:
		m := len(c.edges)
		entries := make([]setEntry, 0, 1<<uint(m))
		for mask := uint64(0); mask < 1<<uint(m); mask++ {
			c.env[name] = bind{kind: bkESet, set: mask}
			entries = append(entries, setEntry{sub: c.build(body)})
		}
		return c.p.nQuantSet(o, qESet, entries)
	default:
		return c.fail("unknown quantifier sort %d", srt)
	}
}

// boundaryProj restricts a local vertex mask to boundary constants.
func (c *baseCtx) boundaryProj(mask uint64) uint64 {
	var proj uint64
	for i, v := range c.boundary {
		if mask>>uint(v)&1 == 1 {
			proj |= 1 << uint(i)
		}
	}
	return proj
}

func (c *baseCtx) atomInSet(f mso.InSet) *node {
	eb := c.env[f.Elem]
	sb := c.env[f.Set]
	switch eb.kind {
	case bkExtV, bkExtE:
		// The part owning the binding reports the truth; OR-combination
		// across parts makes false the correct contribution here.
		return c.p.nBool(false)
	case bkSym:
		// Membership of whichever constant the variable denotes: the set's
		// boundary restriction, as a vector over constants.
		return c.p.nVec(eb.idx, c.boundaryProj(sb.set))
	case bkVertex:
		// The local restriction decides internal members for good.
		return c.p.nAbs(sb.set>>uint(eb.v)&1 == 1)
	case bkEdge:
		return c.p.nAbs(sb.set>>uint(eb.idx)&1 == 1)
	default:
		return c.fail("bad in-set binding for %q", f.Elem)
	}
}

func (c *baseCtx) atomInc(f mso.Inc) *node {
	eb := c.env[f.EdgeVar]
	vb := c.env[f.VertexVar]
	if eb.kind == bkExtE {
		if vb.kind == bkVertex {
			// An internal vertex has all of its edges in this part, so no
			// outside edge is ever incident to it.
			return c.p.absF
		}
		if vb.kind == bkSym {
			// Incidence of a constant with an outside edge: the owner
			// decides for now, but once the constant internalizes all of
			// its edges are local, refuting absolutely.
			return c.p.nExtS(vb.idx)
		}
		// The edge's owner decides incidence against other outside
		// vertices; this side contributes no information.
		return c.p.nBool(false)
	}
	if eb.kind != bkEdge {
		return c.fail("bad inc edge binding for %q", f.EdgeVar)
	}
	e := c.edges[eb.idx]
	switch vb.kind {
	case bkSym:
		// Incidence against an unnamed constant: the edge's boundary
		// endpoints, as a vector. Both endpoints are known, so an empty
		// vector is an absolute refutation, not missing information.
		var vec uint64
		if i := c.constOf[e.U]; i >= 0 {
			vec |= 1 << uint(i)
		}
		if i := c.constOf[e.V]; i >= 0 {
			vec |= 1 << uint(i)
		}
		return c.p.nVecC(vb.idx, vec)
	case bkVertex:
		return c.p.nAbs(e.U == vb.v || e.V == vb.v)
	case bkExtV:
		// A local edge's endpoints are local vertices, never outside ones.
		return c.p.absF
	default:
		return c.fail("bad inc vertex binding for %q", f.VertexVar)
	}
}

func (c *baseCtx) atomAdj(f mso.Adj) *node {
	ub := c.env[f.U]
	vb := c.env[f.V]
	if ub.kind == bkExtV || vb.kind == bkExtV {
		other := ub
		if ub.kind == bkExtV {
			other = vb
		}
		if other.kind == bkVertex {
			// An internal vertex's neighborhood is complete: no outside
			// vertex is ever adjacent to it.
			return c.p.absF
		}
		if other.kind == bkSym {
			// Adjacency of a constant against an outside vertex: no
			// information now, but absolutely false the moment the
			// constant internalizes and its neighborhood closes.
			return c.p.nExtS(other.idx)
		}
		// Outside-vs-outside adjacency is decided by whichever part owns
		// the witnessing edge.
		return c.p.nBool(false)
	}
	switch {
	case ub.kind == bkSym && vb.kind == bkSym:
		// Adjacency between two constants is decided at Accept against the
		// final matrix: edges may still arrive from other parts.
		return c.p.nAdjSS(ub.idx, vb.idx)
	case ub.kind == bkSym && vb.kind == bkVertex:
		return c.adjRowLeaf(ub.idx, vb.v)
	case ub.kind == bkVertex && vb.kind == bkSym:
		return c.adjRowLeaf(vb.idx, ub.v)
	case ub.kind == bkVertex && vb.kind == bkVertex:
		return c.p.nAbs(ub.v != vb.v && c.g.HasEdge(ub.v, vb.v))
	default:
		return c.fail("bad adj bindings for %q, %q", f.U, f.V)
	}
}

// adjRowLeaf is adjacency between the constant bound at quantifier level
// lvl and internal vertex v: the set of boundary constants adjacent to v.
// An internal vertex never gains edges after its part is built, so this is
// its final neighborhood among fusable vertices — and an empty row is an
// absolute refutation.
func (c *baseCtx) adjRowLeaf(lvl int, v graph.Vertex) *node {
	var vec uint64
	for _, u := range c.g.Neighbors(v) {
		if i := c.constOf[u]; i >= 0 {
			vec |= 1 << uint(i)
		}
	}
	return c.p.nVecC(lvl, vec)
}

func (c *baseCtx) atomEq(f mso.Eq) *node {
	ab := c.env[f.A]
	bb := c.env[f.B]
	switch {
	case ab.kind == bkVSet && bb.kind == bkVSet, ab.kind == bkESet && bb.kind == bkESet:
		// Set equality must hold in every part's local restriction, so the
		// leaf combines by AND across parts, unlike every other atom.
		return c.p.nBoolAnd(ab.set == bb.set)
	case ab.kind == bkSym && bb.kind == bkSym:
		return c.p.nEqSS(ab.idx, bb.idx)
	case ab.kind == bkVertex && bb.kind == bkVertex:
		return c.p.nAbs(ab.v == bb.v)
	case ab.kind == bkEdge && bb.kind == bkEdge:
		return c.p.nAbs(ab.idx == bb.idx)
	default:
		if !eqCompatible(ab.kind, bb.kind) {
			return c.fail("bad equality bindings for %q, %q", f.A, f.B)
		}
		if (ab.kind == bkExtV && bb.kind == bkExtV) || (ab.kind == bkExtE && bb.kind == bkExtE) {
			// Two outside bindings may be the same object of another part;
			// the owner decides, this side contributes nothing.
			return c.p.nBool(false)
		}
		// A local binding never equals ⊥, and a constant or a constant-to-be
		// never equals an internal vertex: distinct in every completion.
		return c.p.absF
	}
}

func eqCompatible(a, b bindKind) bool {
	isV := func(k bindKind) bool { return k == bkSym || k == bkVertex || k == bkExtV }
	isE := func(k bindKind) bool { return k == bkEdge || k == bkExtE }
	return (isV(a) && isV(b)) || (isE(a) && isE(b))
}
