package core

import (
	"repro/internal/graph"
)

// Clone returns a deep copy of the labeling in which no structure is shared
// between edges. The honest prover shares node entries across the edges of
// a node's subgraph; cloning severs that sharing so corruption experiments
// mutate a single edge's label, as an adversary controlling one label would.
func (l *Labeling) Clone() *Labeling {
	out := &Labeling{Edges: make(map[graph.Edge]*EdgeLabel, len(l.Edges))}
	for e, el := range l.Edges {
		out.Edges[e] = el.clone()
	}
	return out
}

// Clone returns a deep copy of this one edge label (no structure shared
// with the original), for corruption experiments that mutate a single
// edge's label without paying for a full-labeling clone.
func (l *EdgeLabel) Clone() *EdgeLabel { return l.clone() }

func (l *EdgeLabel) clone() *EdgeLabel {
	out := &EdgeLabel{}
	if l.Own != nil {
		out.Own = l.Own.clone()
	}
	for _, e := range l.Emb {
		out.Emb = append(out.Emb, EmbEntry{
			UID: e.UID, VID: e.VID, Fwd: e.Fwd, Bwd: e.Bwd,
			Payload: e.Payload.clone(),
		})
	}
	if l.Pointing != nil {
		p := *l.Pointing
		out.Pointing = &p
	}
	return out
}

func (c *CEdgeLabel) clone() *CEdgeLabel {
	out := &CEdgeLabel{OwnerPos: c.OwnerPos}
	for _, e := range c.Path {
		out.Path = append(out.Path, e.clone())
	}
	return out
}

func (n *NodeEntry) clone() *NodeEntry {
	out := &NodeEntry{
		NodeID:        n.NodeID,
		Kind:          n.Kind,
		Lanes:         append([]int(nil), n.Lanes...),
		InIDs:         append([]uint64(nil), n.InIDs...),
		OutIDs:        append([]uint64(nil), n.OutIDs...),
		ClassID:       n.ClassID,
		ParentID:      n.ParentID,
		MergedClassID: n.MergedClassID,
		MergedOutIDs:  append([]uint64(nil), n.MergedOutIDs...),
		PathIDs:       append([]uint64(nil), n.PathIDs...),
		RealBits:      append([]bool(nil), n.RealBits...),
		VInputs:       append([]int(nil), n.VInputs...),
		LaneI:         n.LaneI,
		LaneJ:         n.LaneJ,
		BridgeReal:    n.BridgeReal,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.clone())
	}
	if n.Left != nil {
		out.Left = n.Left.clone()
	}
	if n.Right != nil {
		out.Right = n.Right.clone()
	}
	if n.RootMember != nil {
		rm := n.RootMember.clone()
		out.RootMember = &rm
	}
	return out
}

func (c ChildSummary) clone() ChildSummary {
	return ChildSummary{
		NodeID:        c.NodeID,
		Lanes:         append([]int(nil), c.Lanes...),
		InIDs:         append([]uint64(nil), c.InIDs...),
		MergedOutIDs:  append([]uint64(nil), c.MergedOutIDs...),
		MergedClassID: c.MergedClassID,
	}
}

func (o *OperandSummary) clone() *OperandSummary {
	return &OperandSummary{
		NodeID:  o.NodeID,
		Kind:    o.Kind,
		Lanes:   append([]int(nil), o.Lanes...),
		InIDs:   append([]uint64(nil), o.InIDs...),
		OutIDs:  append([]uint64(nil), o.OutIDs...),
		ClassID: o.ClassID,
		Input:   o.Input,
	}
}
