package core

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// sweepPlan schedules the class sweep as dependency levels: level 0 holds the
// nodes whose class needs no other node's (V-, E- and P-leaves), level d the
// nodes all of whose prerequisites sit strictly below d — a B-node above both
// operands, a T-node above every tree member. Nodes within a level are
// independent, so the sweep runs each level as one pool loop with a
// barrier between levels; the level count is bounded by the hierarchy depth
// (≤ 2k), so barrier overhead is O(k) regardless of n. The plan reads only
// the hierarchy and member tables, never property state, so it is computed
// once per structure and shared by every property pass over it.
type sweepPlan struct {
	levels [][]*lanewidth.Node
}

// schedule derives the structure's sweep plan on first use.
func (sp *StructuralProof) schedule() *sweepPlan {
	sp.planOnce.Do(func() {
		h := sp.Hierarchy
		level := make([]int, len(h.Nodes))
		for i := range level {
			level[i] = -1
		}
		var levelOf func(n *lanewidth.Node) int
		levelOf = func(n *lanewidth.Node) int {
			if l := level[n.ID]; l >= 0 {
				return l
			}
			best := -1
			switch n.Kind {
			case lanewidth.BNode:
				if l := levelOf(n.Left); l > best {
					best = l
				}
				if l := levelOf(n.Right); l > best {
					best = l
				}
			case lanewidth.TNode:
				for _, mi := range sp.members[n.ID] {
					if l := levelOf(mi.Node); l > best {
						best = l
					}
				}
			}
			l := best + 1
			level[n.ID] = l
			return l
		}
		maxLevel := 0
		for _, n := range h.Nodes {
			if l := levelOf(n); l > maxLevel {
				maxLevel = l
			}
		}
		levels := make([][]*lanewidth.Node, maxLevel+1)
		for _, n := range h.Nodes {
			levels[level[n.ID]] = append(levels[level[n.ID]], n)
		}
		sp.plan = &sweepPlan{levels: levels}
	})
	return sp.plan
}

// sweep computes every node's class level by level. Every node's class is
// the same algebra evaluation on the same operand classes whatever the order
// or worker count, and the memo tables backing the evaluations are
// mutex-protected and canonical-pointer-keyed, so concurrent hits return the
// same instances. No interning happens here: the caller interns the complete
// class set and canonicalizes, which fixes content-ordered ids. The context
// is polled once per 256 nodes of a level, so a level holding most of the
// leaves is cancellable even when it runs inline.
func (s *Scheme) sweep(ctx context.Context, enc *encoder, workers int) error {
	for _, nodes := range enc.sp.schedule().levels {
		if err := par.ForErr(workers, len(nodes), func(_, i int) error {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return enc.computeClass(nodes[i])
		}); err != nil {
			return err
		}
	}
	return nil
}

// computeClass derives one node's class assuming every prerequisite class is
// already present (the schedule guarantees it). T-nodes fold their members in
// reverse pre-order, so children fold before parents; the merged slots a
// fold writes belong to its own tree's members only, so concurrent T-nodes
// never touch the same slot.
func (enc *encoder) computeClass(n *lanewidth.Node) error {
	s, sp := enc.scheme, enc.sp
	a := sp.art[n.ID]
	var (
		cls *algebra.Class
		err error
	)
	switch n.Kind {
	case lanewidth.VNode:
		cls, err = s.baseV(n.Lanes[0], a.Input)
	case lanewidth.ENode:
		cls, err = s.baseE(n.Lanes[0], a.realBits[0], a.vInputs)
	case lanewidth.PNode:
		cls, err = s.baseP(n.Lanes, a.realBits, a.vInputs)
	case lanewidth.BNode:
		lc, rc := enc.classes[n.Left.ID], enc.classes[n.Right.ID]
		if lc == nil || rc == nil {
			return fmt.Errorf("core: B-node %d scheduled before its operands", n.ID)
		}
		bridgeLabel := 0
		if a.bridgeReal {
			bridgeLabel = algebra.EdgeReal
		}
		cls, err = s.bridgeMerge(lc, rc, n.LaneI, n.LaneJ, bridgeLabel)
	case lanewidth.TNode:
		members := sp.members[n.ID]
		for i := len(members) - 1; i >= 0; i-- {
			mi := members[i]
			acc := enc.classes[mi.Node.ID]
			if acc == nil {
				return fmt.Errorf("core: T-node %d scheduled before member %d", n.ID, mi.Node.ID)
			}
			for _, child := range mi.TreeChildren {
				childMerged := enc.merged[child.ID]
				if childMerged == nil {
					return fmt.Errorf("core: member %d folded before child %d", mi.Node.ID, child.ID)
				}
				acc, err = s.parentMerge(childMerged, acc)
				if err != nil {
					return err
				}
			}
			enc.merged[mi.Node.ID] = acc
		}
		cls = enc.merged[a.rootMember]
	default:
		return fmt.Errorf("core: unknown node kind %v", n.Kind)
	}
	if err != nil {
		return err
	}
	enc.classes[n.ID] = cls
	return nil
}
