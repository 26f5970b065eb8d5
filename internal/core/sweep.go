package core

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// sweepPlan schedules the class sweep as dependency levels of node ids:
// level 0 holds the nodes whose class needs no other node's (V-, E- and
// P-leaves), level d the nodes all of whose prerequisites sit strictly below
// d — a B-node above both operands, a T-node above every tree member. Nodes
// within a level are independent, so the sweep runs each level as one pool
// loop with a barrier between levels; the level count is bounded by the
// hierarchy depth (≤ 2k), so barrier overhead is O(k) regardless of n. The
// plan reads only the shapes, never property state, so it is computed once
// per structure and shared by every property pass over it.
type sweepPlan struct {
	levels [][]int32
}

// schedule derives the structure's sweep plan on first use. Node ids are
// creation order, and every node is created after its operands or members
// except the root, whose id is reserved (see lanewidth.BuildHierarchyMark),
// so one pass in id order with the root last sees every prerequisite's
// level first.
func (sp *StructuralProof) schedule() *sweepPlan {
	sp.planOnce.Do(func() {
		level := make([]int32, len(sp.summaries))
		var members []int32
		maxLevel := int32(0)
		setLevel := func(id int) {
			best := int32(-1)
			if s := sp.shapes[id]; s != nil {
				for _, op := range s.operands() {
					if op != nil {
						best = max(best, level[op.NodeID])
					}
				}
				if s.RootMember != nil {
					members = sp.appendMembers(members[:0], s)
					for _, m := range members {
						best = max(best, level[m])
					}
				}
			}
			level[id] = best + 1
			maxLevel = max(maxLevel, best+1)
		}
		for id := range level {
			if id != sp.root {
				setLevel(id)
			}
		}
		setLevel(sp.root)
		levels := make([][]int32, maxLevel+1)
		for id, l := range level {
			levels[l] = append(levels[l], int32(id))
		}
		sp.plan = &sweepPlan{levels: levels}
	})
	return sp.plan
}

// appendMembers appends the ids of the members of T-node shape t's tree to
// dst: the root member first, and every member after its tree parent.
func (sp *StructuralProof) appendMembers(dst []int32, t *Shape) []int32 {
	start := len(dst)
	dst = append(dst, int32(t.RootMember.NodeID))
	for i := start; i < len(dst); i++ {
		for _, c := range sp.shapes[dst[i]].Children {
			dst = append(dst, int32(c.NodeID))
		}
	}
	return dst
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
	members := make([][]int32, par.Workers(workers)) // per-worker T-node scratch
	for _, nodes := range enc.sp.schedule().levels {
		if err := par.ForErr(workers, len(nodes), func(w, i int) error {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return enc.computeClass(int(nodes[i]), &members[w])
		}); err != nil {
			return err
		}
	}
	return nil
}

// computeClass derives one node's class assuming every prerequisite class is
// already present (the schedule guarantees it). A T-node folds its members
// children first: each member's merged class is its own class merged with
// each tree child's, in tree order. The merged slots a fold writes belong to
// its own tree's members only, so concurrent T-nodes never touch the same
// slot. members is the worker's scratch for a T-node's member list.
func (enc *encoder) computeClass(id int, members *[]int32) error {
	s, sp := enc.scheme, enc.sp
	sum, sh := sp.summaries[id], sp.shapes[id]
	var (
		cls *algebra.Class
		err error
	)
	switch sum.Kind {
	case lanewidth.VNode:
		cls, err = s.baseV(sum.Lanes[0], sum.Input)
	case lanewidth.ENode:
		cls, err = s.baseE(sum.Lanes[0], sh.RealBits[0], sh.VInputs)
	case lanewidth.PNode:
		cls, err = s.baseP(sum.Lanes, sh.RealBits, sh.VInputs)
	case lanewidth.BNode:
		lc, rc := enc.classes[sh.Left.NodeID], enc.classes[sh.Right.NodeID]
		if lc == nil || rc == nil {
			return fmt.Errorf("core: B-node %d scheduled before its operands", id)
		}
		bridgeLabel := 0
		if sh.BridgeReal {
			bridgeLabel = algebra.EdgeReal
		}
		cls, err = s.bridgeMerge(lc, rc, sh.LaneI, sh.LaneJ, bridgeLabel)
	case lanewidth.TNode:
		*members = sp.appendMembers((*members)[:0], sh)
		for i := len(*members) - 1; i >= 0; i-- {
			m := sp.shapes[(*members)[i]]
			acc := enc.classes[m.NodeID]
			if acc == nil {
				return fmt.Errorf("core: T-node %d scheduled before member %d", id, m.NodeID)
			}
			for _, child := range m.Children {
				childMerged := enc.merged[child.NodeID]
				if childMerged == nil {
					return fmt.Errorf("core: member %d folded before child %d", m.NodeID, child.NodeID)
				}
				acc, err = s.parentMerge(childMerged, acc)
				if err != nil {
					return err
				}
			}
			enc.merged[m.NodeID] = acc
		}
		cls = enc.merged[sh.RootMember.NodeID]
	default:
		return fmt.Errorf("core: unknown node kind %v", sum.Kind)
	}
	if err != nil {
		return err
	}
	enc.classes[id] = cls
	return nil
}
