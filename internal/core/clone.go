package core

import (
	"slices"

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

// clone copies the entry and its shape, so a forgery through the clone
// never writes to a shape other entries share.
func (n *NodeEntry) clone() *NodeEntry {
	out := &NodeEntry{Classes: slices.Clone(n.Classes)}
	if n.Shape != nil {
		s := *n.Shape
		s.NodeSummary = cloneSummary(s.NodeSummary)
		s.PathIDs, s.RealBits, s.VInputs = slices.Clone(s.PathIDs), slices.Clone(s.RealBits), slices.Clone(s.VInputs)
		s.Left, s.Right, s.RootMember = cloneSummary(s.Left), cloneSummary(s.Right), cloneSummary(s.RootMember)
		s.Children = nil
		for _, c := range n.Children {
			s.Children = append(s.Children, cloneSummary(c))
		}
		out.Shape = &s
	}
	return out
}

// cloneSummary returns a copy of the summary, or nil for nil.
func cloneSummary(s *NodeSummary) *NodeSummary {
	if s == nil {
		return nil
	}
	c := *s
	c.Lanes, c.InIDs = slices.Clone(c.Lanes), slices.Clone(c.InIDs)
	c.OutIDs, c.MergedOutIDs = slices.Clone(c.OutIDs), slices.Clone(c.MergedOutIDs)
	return &c
}
