// The reusable round core: the per-processor decision rule shared by the
// in-process round (Run, which evaluates it on a bounded worker pool) and
// the multi-process network runtime (certify/distnet). Both stage the same
// verification round — collect the processor's own and its neighbors'
// copies of its incident edge labels, decide locally — and differ only in
// where the neighbors' copies come from (the neighbors' memories in one
// process vs framed TCP messages).
package dist

import "repro/internal/core"

// Checker makes the round-end decisions of processors one after another,
// reusing its memory across them: the verifier's scratch and the view's
// label list. A worker of Run and a distnet node each keep one, so a warm
// decision allocates nothing. The zero value is ready to use; a Checker is
// not safe for concurrent use.
type Checker struct {
	scratch core.Scratch
	labels  []*core.EdgeLabel
}

// CheckVertex is the round-end decision of one processor: every neighbor's
// copy of a shared edge label must agree with the processor's own copy
// (asymmetric memory corruption is exactly a disagreement between the two
// copies), every incident edge must have a label in memory, and the local
// verifier of Theorem 1 must accept the assembled view.
//
// mine[i] is the processor's own copy of its i-th incident edge label and
// remote[i] the copy its neighbor sent during the exchange, both in the
// graph's neighbor order; nil means "no label in memory". Agreement compares
// canonical encodings with a pointer-equality fast path, so honest
// same-process copies cost O(1).
func (c *Checker) CheckVertex(scheme *core.Scheme, id uint64, input int, isolated bool, mine, remote []*core.EdgeLabel) bool {
	if len(mine) != len(remote) {
		return false
	}
	consistent := true
	for i := range mine {
		if remote[i] != mine[i] && labelKey(remote[i]) != labelKey(mine[i]) {
			consistent = false
		}
	}
	if !consistent {
		return false
	}
	view := core.VertexView{ID: id, Input: input, Isolated: isolated, Labels: c.labels[:0]}
	for _, l := range mine {
		if l == nil {
			return false // no label in memory for an incident edge
		}
		view.Labels = append(view.Labels, l)
	}
	c.labels = view.Labels
	return scheme.VerifyAtWith(&view, &c.scratch)
}
