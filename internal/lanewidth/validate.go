package lanewidth

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// Depth returns the maximum number of nodes on a root-to-leaf path of the
// hierarchy. Observation 5.5 bounds it by 2k.
func (h *Hierarchy) Depth() int {
	return nodeDepth(h.Root)
}

func nodeDepth(n *Node) int {
	best := 0
	switch n.Kind {
	case BNode:
		best = max(nodeDepth(n.Left), nodeDepth(n.Right))
	case TNode:
		var walk func(tv *TreeVertex)
		walk = func(tv *TreeVertex) {
			if d := nodeDepth(tv.Node); d > best {
				best = d
			}
			for _, c := range tv.Children {
				walk(c)
			}
		}
		walk(n.Tree)
	}
	return best + 1
}

// OwnedEdges returns the graph edges introduced by this node itself (not by
// descendants): the E-node edge, the P-node path edges, or the B-node bridge.
func (n *Node) OwnedEdges() []graph.Edge {
	switch n.Kind {
	case ENode:
		return []graph.Edge{n.Edge}
	case PNode:
		return graph.PathEdges(n.PathVs)
	case BNode:
		return []graph.Edge{n.Bridge}
	default:
		return nil
	}
}

// EdgeOwners maps every graph edge to the node that owns it. Each edge is
// owned by exactly one node in a valid hierarchy. Validation builds this
// table for its edge-partition check and keeps it, so on a validated
// hierarchy the call is free and every caller shares the one table (which
// must not be modified).
func (h *Hierarchy) EdgeOwners() map[graph.Edge]*Node {
	if h.owners != nil {
		return h.owners
	}
	owners, _ := h.ownerTable()
	return owners
}

// ownerTable maps every owned edge to its owning node. It stops at the
// first node that owns a non-edge or an edge another node already owns.
func (h *Hierarchy) ownerTable() (map[graph.Edge]*Node, error) {
	owners := make(map[graph.Edge]*Node, h.Graph.M())
	for _, n := range h.Nodes {
		for _, e := range n.OwnedEdges() {
			if !h.Graph.HasEdge(e.U, e.V) {
				return owners, fmt.Errorf("lanewidth: node %d owns non-edge %v", n.ID, e)
			}
			if o, dup := owners[e]; dup {
				return owners, fmt.Errorf("lanewidth: edge %v owned by nodes %d and %d", e, o.ID, n.ID)
			}
			owners[e] = n
		}
	}
	return owners, nil
}

// MemberInfo describes one member of a T-node's internal tree: the member
// node, its tree parent (nil for the tree root), its tree children, and the
// out-terminals of Tree-merge applied to its subtree, aligned with the
// member's Lanes like its own Out.
type MemberInfo struct {
	Node         *Node
	TreeParent   *Node
	TreeChildren []*Node
	MergedOut    []graph.Vertex
}

// members lists a T-node's member infos in pre-order (root first), and nil
// for any other node. With fold set, the merged out-terminals of all members
// are computed in the same walk, post-order: a member's are its own,
// overwritten on each child's lanes (a subset of its own) by that child's
// merged ones. The whole call is O(members · k) rather than quadratic in
// the member count. Without fold, MergedOut stays nil.
func members(t *Node, fold bool) []MemberInfo {
	if t.Kind != TNode {
		return nil
	}
	var out []MemberInfo
	var walk func(tv *TreeVertex, parent *Node) []graph.Vertex
	walk = func(tv *TreeVertex, parent *Node) []graph.Vertex {
		n := tv.Node
		slot := len(out)
		out = append(out, MemberInfo{Node: n, TreeParent: parent})
		var merged []graph.Vertex
		if fold {
			merged = append([]graph.Vertex(nil), n.Out...)
		}
		for _, c := range tv.Children {
			out[slot].TreeChildren = append(out[slot].TreeChildren, c.Node)
			sub := walk(c, n)
			if fold {
				for ci, l := range c.Node.Lanes {
					merged[n.LaneIndex(l)] = sub[ci]
				}
			}
		}
		out[slot].MergedOut = merged
		return merged
	}
	walk(t.Tree, nil)
	return out
}

// RootMember returns the root member node of a T-node's tree.
func (t *Node) RootMember() *Node {
	if t.Kind != TNode || t.Tree == nil {
		return nil
	}
	return t.Tree.Node
}

// Validate checks the structural invariants of the hierarchical
// decomposition against the graph:
//
//  1. every graph edge is owned by exactly one node, and every owned edge
//     exists in the graph;
//  2. each node's terminal maps are consistent with its kind;
//  3. T-node trees satisfy the Tree-merge conditions: child lane sets are
//     subsets of their parent node's, siblings have disjoint lane sets, and
//     child in-terminals glue onto parent out-terminals;
//  4. B-nodes bridge disjoint lane sets via their operands' out-terminals;
//  5. the depth bound of Observation 5.5 (≤ 2k) holds;
//  6. each node's subgraph is connected (the key property enabling local
//     certification, end of Section 5.3).
func (h *Hierarchy) Validate() error {
	return h.ValidateFromP(0, 1)
}

// ValidateP is Validate with the per-node connectivity sweep (check 6, the
// dominant cost) distributed over a worker pool; every other check runs
// sequentially on the calling goroutine. The verdict is identical to
// Validate; only the particular node named by an error on an invalid
// hierarchy may differ with scheduling.
func (h *Hierarchy) ValidateP(workers int) error {
	return h.ValidateFromP(0, workers)
}

// ValidateFromP is ValidateP restricted to the dirty region of an incremental
// rebuild: nodes with id below first were created by a transcript prefix the
// previous, already-validated generation shares (see BuildHierarchyMark), so
// their internal invariants (checks 2–4 and 6) were established when that
// generation validated and are skipped. Global checks stay global: the edge
// partition (1) is re-verified over the whole graph, the depth bound (5)
// over the whole hierarchy, and the gluing conditions of every non-frozen
// T-node tree — the root's included — are checked even where they reference
// frozen members. With first > 0 the root's own subgraph-connectivity check
// is also skipped: its subgraph is the entire completion, whose connectivity
// follows from check 1 plus the certified graph's connectivity, which the
// incremental engine verifies before rebuilding. ValidateFromP(0, workers)
// is exactly ValidateP(workers). Validation keeps the edge-owner table it
// builds for check 1 (see EdgeOwners).
func (h *Hierarchy) ValidateFromP(first, workers int) error {
	// 1. Edge partition: owned edges are distinct graph edges, so covering
	// all of them means every edge is owned exactly once.
	owners, err := h.ownerTable()
	if err != nil {
		return err
	}
	if len(owners) != h.Graph.M() {
		return fmt.Errorf("lanewidth: %d owned edges for %d graph edges", len(owners), h.Graph.M())
	}
	h.owners = owners

	// 2–4. Per-node checks. Frozen nodes (id < first) short-circuit: their own
	// invariants and everything inside them were validated by the previous
	// generation; only the relations a non-frozen ancestor imposes on them
	// (tree gluing, operand lanes) are re-checked, in the ancestor's frame.
	var check func(n *Node) error
	check = func(n *Node) error {
		if n.ID < first && n != h.Root {
			return nil
		}
		if len(n.Lanes) == 0 {
			return fmt.Errorf("lanewidth: node %d has empty lane set", n.ID)
		}
		for i := 1; i < len(n.Lanes); i++ {
			if n.Lanes[i] <= n.Lanes[i-1] {
				return fmt.Errorf("lanewidth: node %d lanes not strictly increasing", n.ID)
			}
		}
		if len(n.In) != len(n.Lanes) || len(n.Out) != len(n.Lanes) {
			return fmt.Errorf("lanewidth: node %d has %d in- and %d out-terminals for %d lanes",
				n.ID, len(n.In), len(n.Out), len(n.Lanes))
		}
		switch n.Kind {
		case VNode:
			if len(n.Lanes) != 1 || n.In[0] != n.Vertex || n.Out[0] != n.Vertex {
				return fmt.Errorf("lanewidth: malformed V-node %d", n.ID)
			}
		case ENode:
			if len(n.Lanes) != 1 || n.In[0] == n.Out[0] ||
				graph.NewEdge(n.In[0], n.Out[0]) != n.Edge {
				return fmt.Errorf("lanewidth: malformed E-node %d", n.ID)
			}
		case PNode:
			if len(n.PathVs) != len(n.Lanes) {
				return fmt.Errorf("lanewidth: malformed P-node %d", n.ID)
			}
			for idx, l := range n.Lanes {
				if n.In[idx] != n.PathVs[idx] || n.Out[idx] != n.PathVs[idx] {
					return fmt.Errorf("lanewidth: P-node %d terminal mismatch on lane %d", n.ID, l)
				}
			}
		case BNode:
			if n.Left.Kind != VNode && n.Left.Kind != TNode {
				return fmt.Errorf("lanewidth: B-node %d left operand kind %v", n.ID, n.Left.Kind)
			}
			if n.Right.Kind != VNode && n.Right.Kind != TNode {
				return fmt.Errorf("lanewidth: B-node %d right operand kind %v", n.ID, n.Right.Kind)
			}
			for _, l := range n.Left.Lanes {
				for _, m := range n.Right.Lanes {
					if l == m {
						return fmt.Errorf("lanewidth: B-node %d operands share lane %d", n.ID, l)
					}
				}
			}
			if err := check(n.Left); err != nil {
				return err
			}
			if err := check(n.Right); err != nil {
				return err
			}
			li, rj := n.Left.LaneIndex(n.LaneI), n.Right.LaneIndex(n.LaneJ)
			if li < 0 || rj < 0 || graph.NewEdge(n.Left.Out[li], n.Right.Out[rj]) != n.Bridge {
				return fmt.Errorf("lanewidth: B-node %d bridge does not join out-terminals", n.ID)
			}
		case TNode:
			var walk func(tv *TreeVertex) error
			walk = func(tv *TreeVertex) error {
				switch tv.Node.Kind {
				case ENode, PNode, BNode:
				default:
					return fmt.Errorf("lanewidth: T-node %d member of kind %v", n.ID, tv.Node.Kind)
				}
				if err := check(tv.Node); err != nil {
					return err
				}
				for ci, c := range tv.Children {
					// The child's own terminal counts are checked before its
					// terminals are glued onto the parent's.
					if err := walk(c); err != nil {
						return err
					}
					for li, l := range c.Node.Lanes {
						pi := tv.Node.LaneIndex(l)
						if pi < 0 {
							return fmt.Errorf("lanewidth: T-node %d: child lanes ⊄ parent lanes", n.ID)
						}
						if c.Node.In[li] != tv.Node.Out[pi] {
							return fmt.Errorf("lanewidth: T-node %d: lane %d child in-terminal %d ≠ parent out-terminal %d",
								n.ID, l, c.Node.In[li], tv.Node.Out[pi])
						}
					}
					for _, sib := range tv.Children[:ci] {
						for _, l := range c.Node.Lanes {
							for _, m := range sib.Node.Lanes {
								if l == m {
									return fmt.Errorf("lanewidth: T-node %d: siblings share lane %d", n.ID, l)
								}
							}
						}
					}
				}
				return nil
			}
			if err := walk(n.Tree); err != nil {
				return err
			}
		}
		return nil
	}
	if h.Root.Kind != TNode {
		return fmt.Errorf("lanewidth: root must be a T-node, got %v", h.Root.Kind)
	}
	if err := check(h.Root); err != nil {
		return err
	}

	// 5. Depth bound (Observation 5.5).
	if d := h.Depth(); d > 2*h.K {
		return fmt.Errorf("lanewidth: depth %d exceeds 2k=%d", d, 2*h.K)
	}

	// 6. Connectivity of each node's subgraph. Frozen nodes carry their
	// previous generation's verdict; the root is covered by check 1 plus the
	// graph-connectivity precondition when validating incrementally. Nodes
	// are checked independently with per-worker epoch-stamped scratch, so
	// the sweep neither allocates per node nor serializes on shared state.
	workers = par.Workers(workers)
	if workers > len(h.Nodes) {
		workers = len(h.Nodes)
	}
	scratches := make([]*connScratch, workers)
	if err := par.ForErr(workers, len(h.Nodes), func(worker, i int) error {
		n := h.Nodes[i]
		if (n.ID < first && n != h.Root) || (first > 0 && n == h.Root) {
			return nil
		}
		sc := scratches[worker]
		if sc == nil {
			sc = newConnScratch(h.Graph.N())
			scratches[worker] = sc
		}
		if !sc.connected(n) {
			return fmt.Errorf("lanewidth: node %d (%v) has a disconnected subgraph", n.ID, n.Kind)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// connScratch decides subgraph connectivity with an epoch-stamped union-find
// over graph-sized arrays: checking a node walks its subtree once, touching
// vertices and unioning payload edges, and allocates nothing after the
// scratch itself. It replaces the former per-node map-based BFS, the
// validator's top allocation site.
type connScratch struct {
	stamp  []int
	parent []graph.Vertex
	epoch  int
	comps  int
}

func newConnScratch(n int) *connScratch {
	return &connScratch{stamp: make([]int, n), parent: make([]graph.Vertex, n)}
}

func (s *connScratch) find(v graph.Vertex) graph.Vertex {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]] // path halving
		v = s.parent[v]
	}
	return v
}

func (s *connScratch) touch(v graph.Vertex) {
	if s.stamp[v] != s.epoch {
		s.stamp[v] = s.epoch
		s.parent[v] = v
		s.comps++
	}
}

func (s *connScratch) edge(u, v graph.Vertex) {
	s.touch(u)
	s.touch(v)
	ru, rv := s.find(u), s.find(v)
	if ru != rv {
		s.parent[ru] = rv
		s.comps--
	}
}

// connected reports whether n's subgraph (its payload plus all descendants')
// forms one connected component.
func (s *connScratch) connected(n *Node) bool {
	s.epoch++
	s.comps = 0
	s.visit(n)
	return s.comps <= 1
}

func (s *connScratch) visit(m *Node) {
	switch m.Kind {
	case VNode:
		s.touch(m.Vertex)
	case ENode:
		s.edge(m.Edge.U, m.Edge.V)
	case PNode:
		for _, v := range m.PathVs {
			s.touch(v)
		}
		for i := 0; i+1 < len(m.PathVs); i++ {
			s.edge(m.PathVs[i], m.PathVs[i+1])
		}
	case BNode:
		s.visit(m.Left)
		s.visit(m.Right)
		s.edge(m.Bridge.U, m.Bridge.V)
	case TNode:
		s.walk(m.Tree)
	}
}

func (s *connScratch) walk(tv *TreeVertex) {
	s.visit(tv.Node)
	for _, c := range tv.Children {
		s.walk(c)
	}
}

// MembersByTNodeFromP computes the member infos of every T-node of the
// hierarchy (root first, with merged out-terminals) in one pass, indexed by
// node id and nil for nodes that are not T-nodes. It is the bulk accessor
// backing the property-independent StructuralProof layer in core: the
// member tables are computed once per structure and shared read-only by
// every per-property labeling pass instead of being re-derived per
// property.
//
// The merged-out-terminal fold — the expensive part — is elided for frozen
// T-nodes (id < first, see BuildHierarchyMark): their entries carry the
// member order and tree children but a nil MergedOut. The incremental
// structure rebuild reads MergedOut only for members of non-frozen T-nodes
// (frozen members' folds are carried over from the previous generation's
// artifacts), while the class sweep reads only order and children, so the
// shallow entries lose nothing it needs. first = 0 computes every fold.
//
// The per-T-node folds run on a worker pool. Folds of distinct T-nodes are
// independent (each reads only its own tree), so the result is identical
// for every workers value.
func (h *Hierarchy) MembersByTNodeFromP(first, workers int) [][]MemberInfo {
	out := make([][]MemberInfo, len(h.Nodes))
	par.For(workers, len(h.Nodes), func(_, i int) {
		// The root's id is reserved (always 0, below any mark) but its tree
		// is rebuilt every generation, so it always gets the fold.
		n := h.Nodes[i]
		out[i] = members(n, n.ID >= first || n == h.Root)
	})
	return out
}
