package lanewidth

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Kind enumerates the five node types of Section 5.3.
type Kind int

const (
	// VNode is a single-vertex k-lane graph on one lane.
	VNode Kind = iota + 1
	// ENode is a single-edge k-lane graph on one lane.
	ENode
	// PNode is the k-vertex initial path using all lanes.
	PNode
	// BNode is a Bridge-merge of two V-/T-nodes.
	BNode
	// TNode is a Tree-merge over E-/P-/B-nodes.
	TNode
)

func (k Kind) String() string {
	switch k {
	case VNode:
		return "V"
	case ENode:
		return "E"
	case PNode:
		return "P"
	case BNode:
		return "B"
	case TNode:
		return "T"
	default:
		return "?"
	}
}

// Node is a node of a hierarchical decomposition H. All vertex references
// are into the certified graph itself (merging never renames vertices, it
// only glues identical ones), which is what makes local verification
// possible.
//
// Terminals are lane-aligned, the one lane → terminal layout from here to
// the wire: In[i] and Out[i] are the in- and out-terminal of the (merged)
// node on Lanes[i], and Lanes is strictly increasing, so a lane's position
// is found by binary search (LaneIndex).
type Node struct {
	ID    int
	Kind  Kind
	Lanes []int          // sorted lane set T(G)
	In    []graph.Vertex // In[i] is the in-terminal on Lanes[i]
	Out   []graph.Vertex // Out[i] is the out-terminal on Lanes[i]

	// Kind-specific payloads.
	Vertex graph.Vertex   // VNode: the unique vertex
	Edge   graph.Edge     // ENode: the unique edge
	PathVs []graph.Vertex // PNode: the path vertices in lane order

	Left, Right  *Node      // BNode: lane-i and lane-j operands (V or T)
	LaneI, LaneJ int        // BNode: merge lanes
	Bridge       graph.Edge // BNode: the added edge

	Tree *TreeVertex // TNode: the internal Tree-merge tree

	// Parent in H (nil for the root T-node).
	Parent *Node
}

// TreeVertex is a vertex of a T-node's internal tree; its Node is an E-, P-
// or B-node.
type TreeVertex struct {
	Node     *Node
	Children []*TreeVertex
	parent   *TreeVertex
	// depth is the distance to the working tree's root at construction
	// time. Depths never change while a vertex is in the top tree (detached
	// subtrees are frozen into T-nodes and their owners redirected), so
	// treeLCA can level its walks without re-measuring chains.
	depth int
}

// Hierarchy is a complete hierarchical decomposition of a graph built from
// an OpLog (Proposition 5.6).
type Hierarchy struct {
	K     int
	Graph *graph.Graph
	Root  *Node   // the top-level T-node
	Nodes []*Node // all nodes indexed by ID

	owners map[graph.Edge]*Node // edge → owning node, kept by validation
}

// BuildHierarchy constructs the hierarchical decomposition of the graph
// described by the transcript, following the inductive construction of
// Proposition 5.6 (Figure 10). The resulting root-to-leaf depth is at most
// 2k (Observation 5.5).
func BuildHierarchy(g *graph.Graph, log OpLog) (*Hierarchy, error) {
	h, _, err := BuildHierarchyMark(g, log, 0)
	return h, err
}

// BuildHierarchyMark is BuildHierarchy reporting, in addition, the number of
// nodes created by the base case plus the first cleanOps operations of the
// transcript. The construction is a deterministic replay and node ids are
// creation order, so any two transcripts sharing that prefix (same K, Heads
// and first cleanOps ops — see OpLog.Divergence) create nodes 0..first-1
// with identical payloads, lane sets and terminal maps, and identical
// internal trees for T-nodes among them (wrapTNode freezes a subtree; later
// operations may re-attach a frozen T-node but never mutate inside it). Only
// a node's Parent pointer may differ, since it is fixed by the final root
// wrap. Incremental re-certification uses the mark as the id floor below
// which per-node derived state can be carried over from the previous
// generation without inspection.
//
// The root T-node is the exception to creation-order ids: its id is reserved
// upfront and is always 0, even though its content is fixed only by the full
// transcript. Were the root numbered last, its id — encoded into every tree
// member's entry as the parent reference — would shift whenever an edit
// changed the transcript's length, forcing every top-tree entry (and with it
// every certificate, since all paths start at the root) to re-encode even
// when nothing about it changed. With the reservation the root is the single
// node below any mark whose derived state must always be rebuilt; callers
// carrying state below the mark exempt it explicitly, as do the validator's
// frozen-node skips.
func BuildHierarchyMark(g *graph.Graph, log OpLog, cleanOps int) (*Hierarchy, int, error) {
	h := &Hierarchy{K: log.K, Graph: g}
	b := &hBuilder{h: h, k: log.K}
	root := b.newNode(TNode)
	first := 0

	// Base case: the initial path as a P-node inside the working tree.
	p := b.newNode(PNode)
	p.PathVs = append([]graph.Vertex(nil), log.Heads...)
	for i := range log.Heads {
		p.Lanes = append(p.Lanes, i)
	}
	p.In, p.Out = p.PathVs, p.PathVs
	b.top = &TreeVertex{Node: p}
	b.owner = make([]*TreeVertex, log.K)
	designated := make([]graph.Vertex, log.K)
	for i := range b.owner {
		b.owner[i] = b.top
		designated[i] = log.Heads[i]
	}

	for opIdx, op := range log.Ops {
		if cleanOps > 0 && opIdx == cleanOps {
			first = len(h.Nodes)
		}
		switch op.Kind {
		case OpVInsert:
			if designated[op.I] != op.U {
				return nil, 0, fmt.Errorf("lanewidth: op %d V-insert(%d) expects τ=%d, have %d",
					opIdx, op.I, op.U, designated[op.I])
			}
			e := b.newNode(ENode)
			e.Edge = graph.NewEdge(op.U, op.V)
			e.Lanes = []int{op.I}
			e.In, e.Out = []graph.Vertex{op.U}, []graph.Vertex{op.V}
			tv := &TreeVertex{Node: e, parent: b.owner[op.I], depth: b.owner[op.I].depth + 1}
			b.owner[op.I].Children = append(b.owner[op.I].Children, tv)
			b.owner[op.I] = tv
			designated[op.I] = op.V
		case OpEInsert:
			if designated[op.I] != op.U || designated[op.J] != op.V {
				return nil, 0, fmt.Errorf("lanewidth: op %d E-insert(%d,%d) endpoint mismatch", opIdx, op.I, op.J)
			}
			if err := b.eInsert(op.I, op.J, op.U, op.V); err != nil {
				return nil, 0, fmt.Errorf("lanewidth: op %d: %w", opIdx, err)
			}
		default:
			return nil, 0, fmt.Errorf("lanewidth: op %d has unknown kind %d", opIdx, op.Kind)
		}
	}
	if cleanOps > 0 && cleanOps >= len(log.Ops) {
		// The whole transcript is clean; only the final root wrap (whose
		// content depends on the transcript's length) is past the mark, and
		// the root is exempted from carry-over by id.
		first = len(h.Nodes)
	}

	b.fillTNode(root, b.top)
	h.Root = root
	setParents(h.Root, nil)
	return h, first, nil
}

type hBuilder struct {
	h     *Hierarchy
	k     int
	top   *TreeVertex
	owner []*TreeVertex // per lane: lowest top-tree vertex containing τ_l
}

func (b *hBuilder) newNode(k Kind) *Node {
	n := &Node{ID: len(b.h.Nodes), Kind: k}
	b.h.Nodes = append(b.h.Nodes, n)
	return n
}

// LaneIndex returns the position of lane l in the node's sorted lane set,
// or -1 when the node does not use l. Lane sets hold at most
// MaxLaneBudget lanes, so the binary search is a handful of probes.
func (n *Node) LaneIndex(l int) int {
	if i, ok := slices.BinarySearch(n.Lanes, l); ok {
		return i
	}
	return -1
}

// eInsert implements the three sub-cases of Case 2 in Proposition 5.6.
func (b *hBuilder) eInsert(i, j int, u, v graph.Vertex) error {
	gi, gj := b.owner[i], b.owner[j]
	lca := treeLCA(gi, gj)
	if lca == nil {
		return fmt.Errorf("E-insert(%d,%d): owners in different trees", i, j)
	}

	makeOperand := func(lane int, owner *TreeVertex, tau graph.Vertex) (*Node, *TreeVertex) {
		if owner == lca {
			// V-node for the designated vertex (Cases 2.1 and 2.3).
			vn := b.newNode(VNode)
			vn.Vertex = tau
			vn.Lanes = []int{lane}
			vn.In = []graph.Vertex{tau}
			vn.Out = vn.In
			return vn, nil
		}
		// T-node wrapping the subtree rooted at the child of lca that is an
		// ancestor of owner (Cases 2.2 and 2.3).
		child := childToward(lca, owner)
		detachChild(lca, child)
		return b.wrapTNode(child), child
	}

	left, leftSub := makeOperand(i, gi, u)
	right, rightSub := makeOperand(j, gj, v)

	bn := b.newNode(BNode)
	bn.Left, bn.Right = left, right
	bn.LaneI, bn.LaneJ = i, j
	bn.Bridge = graph.NewEdge(u, v)
	mergeTerminals(bn, left, right)

	tv := &TreeVertex{Node: bn, parent: lca, depth: lca.depth + 1}
	lca.Children = append(lca.Children, tv)

	// Ownership: every lane whose owner sat inside a wrapped subtree — or
	// was the lca itself for the V-node lanes — is now provided by the
	// B-node.
	for l := range b.owner {
		if leftSub != nil && inSubtree(b.owner[l], leftSub) {
			b.owner[l] = tv
		}
		if rightSub != nil && inSubtree(b.owner[l], rightSub) {
			b.owner[l] = tv
		}
	}
	if leftSub == nil {
		b.owner[i] = tv
	}
	if rightSub == nil {
		b.owner[j] = tv
	}
	return nil
}

// wrapTNode freezes the subtree rooted at root into a fresh T-node,
// computing the Tree-merge terminal assignments.
func (b *hBuilder) wrapTNode(root *TreeVertex) *Node {
	t := b.newNode(TNode)
	b.fillTNode(t, root)
	return t
}

// fillTNode freezes the subtree rooted at root into the (empty) T-node t.
func (b *hBuilder) fillTNode(t *Node, root *TreeVertex) {
	t.Tree = root
	root.parent = nil
	t.Lanes = root.Node.Lanes
	t.In = root.Node.In
	t.Out = make([]graph.Vertex, len(t.Lanes))
	for i, l := range t.Lanes {
		t.Out[i] = mergedOutLane(root, l)
	}
}

// mergedOutLane computes one lane's out-terminal of Tree-merge(subtree at
// tv): the lane's out-terminal of the deepest vertex on the lane's child
// chain (sibling lane sets are disjoint, so at most one child covers the
// lane at each step). Descending per lane costs no allocation, unlike a
// subtree fold, which matters because every E-insert of the transcript
// replay wraps a subtree.
func mergedOutLane(tv *TreeVertex, l int) graph.Vertex {
	for {
		var next *TreeVertex
		for _, c := range tv.Children {
			if c.Node.LaneIndex(l) >= 0 {
				next = c
				break
			}
		}
		if next == nil {
			return tv.Node.Out[tv.Node.LaneIndex(l)]
		}
		tv = next
	}
}

func treeLCA(a, c *TreeVertex) *TreeVertex {
	// Allocation-free LCA: level both walks to equal recorded depth, then
	// climb in lockstep. Costs O(distance to the LCA), not O(tree depth).
	for a.depth > c.depth {
		if a.parent == nil {
			return nil
		}
		a = a.parent
	}
	for c.depth > a.depth {
		if c.parent == nil {
			return nil
		}
		c = c.parent
	}
	for a != c {
		if a.parent == nil || c.parent == nil {
			return nil // different trees
		}
		a, c = a.parent, c.parent
	}
	return a
}

// childToward returns the child of lca on the path to desc (desc ≠ lca).
func childToward(lca, desc *TreeVertex) *TreeVertex {
	x := desc
	for x.parent != lca {
		x = x.parent
	}
	return x
}

func detachChild(parent, child *TreeVertex) {
	for idx, c := range parent.Children {
		if c == child {
			parent.Children = append(parent.Children[:idx], parent.Children[idx+1:]...)
			return
		}
	}
}

func inSubtree(x, root *TreeVertex) bool {
	// x can only be in root's subtree at a recorded depth ≥ root's, so the
	// climb stops at root's level instead of walking to the tree root.
	for x != nil && x.depth > root.depth {
		x = x.parent
	}
	return x == root
}

// mergeTerminals sets the B-node's lanes to the sorted union of its
// operands' lane sets, each lane carrying its operand's terminals. The
// operands' lane sets are disjoint; Validate rejects a B-node whose
// operands share a lane.
func mergeTerminals(bn, left, right *Node) {
	size := len(left.Lanes) + len(right.Lanes)
	bn.Lanes = make([]int, 0, size)
	bn.In = make([]graph.Vertex, 0, size)
	bn.Out = make([]graph.Vertex, 0, size)
	for i, j := 0, 0; i+j < size; {
		from, k := right, j
		if j == len(right.Lanes) || (i < len(left.Lanes) && left.Lanes[i] < right.Lanes[j]) {
			from, k = left, i
			i++
		} else {
			j++
		}
		bn.Lanes = append(bn.Lanes, from.Lanes[k])
		bn.In = append(bn.In, from.In[k])
		bn.Out = append(bn.Out, from.Out[k])
	}
}

// setParents fixes the H-parent pointers: a T-node is the parent of its tree
// members; a B-node is the parent of its two operands.
func setParents(n *Node, parent *Node) {
	n.Parent = parent
	switch n.Kind {
	case BNode:
		setParents(n.Left, n)
		setParents(n.Right, n)
	case TNode:
		var walk func(tv *TreeVertex)
		walk = func(tv *TreeVertex) {
			setParents(tv.Node, n)
			for _, c := range tv.Children {
				walk(c)
			}
		}
		walk(n.Tree)
	}
}
