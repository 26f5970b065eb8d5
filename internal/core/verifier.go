package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
	"repro/internal/par"
)

// VertexView is everything a vertex sees in the one-round verification:
// its own identifier, whether it is the whole network, and the labels of
// its incident (real) edges. Neighbor identities are not part of the view —
// all identification flows through label contents, as in the model.
type VertexView struct {
	ID       uint64
	Input    int // the vertex's input label, part of its state s(v)
	Isolated bool
	Labels   []*EdgeLabel
}

// VerifyParallelCtx runs the local verifier at every vertex on a worker pool
// and returns the verdicts; the scheme accepts iff all are true.
// Verification is embarrassingly parallel (each vertex's check reads only its
// own view), so the verdicts are identical for every Scheme.Workers value
// (0 means GOMAXPROCS; ≤ 1 runs inline on the calling goroutine). Each
// worker reuses one vertexScratch for every vertex it verifies. The
// context is polled once per 64-vertex chunk: cancellation drains the pool
// promptly and the call returns ctx.Err() with a nil verdict slice.
func (s *Scheme) VerifyParallelCtx(ctx context.Context, cfg *cert.Config, labeling *Labeling) ([]bool, error) {
	verdicts := make([]bool, cfg.G.N())
	scratch := make([]vertexScratch, par.Workers(s.Workers))
	err := par.ForErr(s.Workers, len(verdicts), func(worker, v int) error {
		if v&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		verdicts[v] = s.verifyVertex(cfg, labeling, v, &scratch[worker])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return verdicts, nil
}

// verifyVertex assembles vertex v's view from the labeling and runs the
// verifier on it.
func (s *Scheme) verifyVertex(cfg *cert.Config, labeling *Labeling, v graph.Vertex, sc *vertexScratch) bool {
	view := VertexView{ID: cfg.IDs[v], Input: cfg.Input(v), Isolated: cfg.G.Degree(v) == 0, Labels: sc.labels[:0]}
	for _, w := range cfg.G.Neighbors(v) {
		l, has := labeling.Edges[graph.NewEdge(v, w)]
		if !has || l == nil {
			return false
		}
		view.Labels = append(view.Labels, l)
	}
	sc.labels = view.Labels
	return s.verifyAt(&view, sc)
}

// AllAccept reports whether every verdict is true.
func AllAccept(verdicts []bool) bool {
	for _, v := range verdicts {
		if !v {
			return false
		}
	}
	return true
}

// completionEdge is a reconstructed incident edge of the completion G'.
type completionEdge struct {
	payload *CEdgeLabel
	real    bool
}

// ownedEdge is an incident completion edge filed under the node that owns
// it (the last entry of its certificate path), with its owner position.
type ownedEdge struct {
	node int
	real bool
	pos  int
}

// childClaim is one member entry's claim to be the parent of a child: the
// claiming member's T-node and the child's node id.
type childClaim struct{ parent, child int }

// entrySlot is a slot of vertexScratch's entry index: a row of
// sc.entries, valid only while gen is the scratch's current generation.
type entrySlot struct {
	gen uint32
	row int32
}

// vertexScratch holds the working sets of one vertex's verification. A
// vertex view usually holds a few dozen certificates and node entries, so
// they are kept in small slices searched linearly or sorted, never in
// maps, and a worker of VerifyParallelCtx reuses one scratch across its
// vertices: after the first few vertices a view allocates nothing. A hub's
// view holds entries in proportion to its degree, so past linearRows
// entries they are also found through an open-addressing index, and the
// child claims the parent binding counts are sorted once per vertex.
type vertexScratch struct {
	labels  []*EdgeLabel         // the view's labels (verifyVertex)
	ces     []completionEdge     // incident completion edges
	embs    []EmbEntry           // embedding entries, sorted by virtual edge
	entries []*NodeEntry         // distinct node entries, one per node id
	uses    []int                // certificate paths naming each entry's node
	owned   []ownedEdge          // incident edges by owner, sorted by node
	pls     []cert.PointingLabel // pointing labels of the incident edges
	claims  []childClaim         // child claims of the entries, sorted
	claimed bool                 // claims holds this vertex's claims

	// index finds entries by node id once there are more than
	// linearRows of them; a slot is empty unless its gen is gen, so
	// starting a vertex's index is one increment.
	index   []entrySlot
	gen     uint32
	indexed int // views whose entries this scratch indexed
	probes  int // entry rows and claims examined finding entries and parent claims
}

// entry returns the vertex's entry of node id, or nil when none is visible.
func (sc *vertexScratch) entry(id int) *NodeEntry {
	if r := sc.row(id); r >= 0 {
		return sc.entries[r]
	}
	return nil
}

// row returns the row of sc.entries holding node id's entry, or -1.
func (sc *vertexScratch) row(id int) int {
	if len(sc.entries) <= linearRows {
		for r, e := range sc.entries {
			sc.probes++
			if e.NodeID == id {
				return r
			}
		}
		return -1
	}
	mask := uint64(len(sc.index) - 1)
	for h := dictHash(uint64(id)) & mask; ; h = (h + 1) & mask {
		sc.probes++
		s := sc.index[h]
		if s.gen != sc.gen {
			return -1
		}
		if sc.entries[s.row].NodeID == id {
			return int(s.row)
		}
	}
}

// addEntry appends a node entry, named by one certificate path so far, to
// the view's entries, indexing them once there are more than linearRows.
func (sc *vertexScratch) addEntry(e *NodeEntry) {
	sc.entries, sc.uses = append(sc.entries, e), append(sc.uses, 1)
	n := len(sc.entries)
	if n <= linearRows {
		return
	}
	if n == linearRows+1 {
		sc.indexed++
	}
	if n == linearRows+1 || 2*n > len(sc.index) {
		// Start a fresh generation, in a larger table when this one would
		// pass half full, and index every entry so far.
		if 2*n > len(sc.index) {
			sc.index = make([]entrySlot, max(4*linearRows, 2*len(sc.index)))
		}
		if sc.gen++; sc.gen == 0 {
			clear(sc.index)
			sc.gen = 1
		}
		for r := range sc.entries {
			sc.indexRow(r)
		}
		return
	}
	sc.indexRow(n - 1)
}

// indexRow files row r of sc.entries in the index.
func (sc *vertexScratch) indexRow(r int) {
	mask := uint64(len(sc.index) - 1)
	h := dictHash(uint64(sc.entries[r].NodeID)) & mask
	for sc.index[h].gen == sc.gen {
		h = (h + 1) & mask
	}
	sc.index[h] = entrySlot{gen: sc.gen, row: int32(r)}
}

// parentClaims returns how many visible member entries of T-node parent,
// other than the child itself, list child among their children. The
// claims are collected and sorted on the vertex's first call, so a hub's
// parent bindings cost O(m log m) in its m claims, not a scan of every
// entry per member.
func (sc *vertexScratch) parentClaims(parent, child int) int {
	if !sc.claimed {
		sc.claims = sc.claims[:0]
		for _, m := range sc.entries {
			for _, c := range m.Children {
				if c.NodeID != m.NodeID {
					sc.claims = append(sc.claims, childClaim{m.ParentID, c.NodeID})
				}
			}
		}
		slices.SortFunc(sc.claims, compareClaims)
		sc.claimed = true
		sc.probes += len(sc.entries) + len(sc.claims)
	}
	i, _ := slices.BinarySearchFunc(sc.claims, childClaim{parent, child}, compareClaims)
	j := i
	for j < len(sc.claims) && sc.claims[j] == (childClaim{parent, child}) {
		j++
	}
	sc.probes += 1 + j - i
	return j - i
}

func compareClaims(a, b childClaim) int {
	return cmp.Or(cmp.Compare(a.parent, b.parent), cmp.Compare(a.child, b.child))
}

// ownedBy returns the incident completion edges that node owns.
func (sc *vertexScratch) ownedBy(node int) []ownedEdge {
	i, _ := slices.BinarySearchFunc(sc.owned, node, func(o ownedEdge, n int) int { return cmp.Compare(o.node, n) })
	j := i
	for j < len(sc.owned) && sc.owned[j].node == node {
		j++
	}
	return sc.owned[i:j]
}

// VerifyAt is the verification algorithm V of Theorem 1 at a single vertex.
// It returns false on any malformed, inconsistent, or property-violating
// label configuration. It runs on a fresh Scratch; a caller verifying many
// vertices in turn passes its own to VerifyAtWith.
func (s *Scheme) VerifyAt(view *VertexView) bool {
	return s.VerifyAtWith(view, new(Scratch))
}

// Scratch is the reusable working memory of vertex verifications. A
// goroutine that verifies vertex after vertex (a distnet node's round)
// keeps one and passes it to every VerifyAtWith, so
// that once it is warm a view allocates nothing. The zero value is ready
// to use; a Scratch is not safe for concurrent use.
type Scratch struct{ sc vertexScratch }

// VerifyAtWith is VerifyAt on the caller's scratch.
func (s *Scheme) VerifyAtWith(view *VertexView, sc *Scratch) bool {
	return s.verifyAt(view, &sc.sc)
}

func (s *Scheme) verifyAt(view *VertexView, sc *vertexScratch) bool {
	if view.Isolated {
		// Single-vertex network: decide the property locally.
		ok, err := s.singleVertexAccept(view.Input)
		return err == nil && ok && len(view.Labels) == 0
	}
	if !s.reconstructCompletion(view, sc) {
		return false
	}
	if !s.collectEntries(sc) {
		return false
	}
	if !s.checkEntryStructure(sc.entries) {
		return false
	}
	if !s.checkRoles(view, sc) {
		return false
	}
	return s.checkRootAndPointing(view, sc)
}

// reconstructCompletion validates the embedding certification (Theorem 1)
// and fills sc.ces with the vertex's incident completion edges: all real
// edges plus the virtual edges of which it is an endpoint. The embedding
// entries are grouped by virtual edge by sorting them on its endpoint ids;
// each group's checks are symmetric in its members, so the verdict does
// not depend on the order within a group or of the groups.
func (s *Scheme) reconstructCompletion(view *VertexView, sc *vertexScratch) bool {
	sc.ces, sc.embs = sc.ces[:0], sc.embs[:0]
	for _, l := range view.Labels {
		if l == nil || l.Own == nil || len(l.Own.Path) == 0 {
			return false
		}
		sc.ces = append(sc.ces, completionEdge{payload: l.Own, real: true})
		for _, e := range l.Emb {
			if e.Payload == nil || len(e.Payload.Path) == 0 || e.Fwd < 1 || e.Bwd < 1 {
				return false
			}
			sc.embs = append(sc.embs, e)
		}
	}
	slices.SortFunc(sc.embs, func(a, b EmbEntry) int {
		return cmp.Or(cmp.Compare(a.UID, b.UID), cmp.Compare(a.VID, b.VID))
	})
	for rest := sc.embs; len(rest) > 0; {
		uid, vid := rest[0].UID, rest[0].VID
		n := 1
		for n < len(rest) && rest[n].UID == uid && rest[n].VID == vid {
			n++
		}
		group := rest[:n]
		rest = rest[n:]
		if uid == vid {
			return false
		}
		// All copies of a virtual edge's certificate must agree.
		first := group[0]
		total := first.Fwd + first.Bwd
		for _, e := range group[1:] {
			if !sameCert(e.Payload, first.Payload) || e.Fwd+e.Bwd != total {
				return false
			}
		}
		switch len(group) {
		case 1:
			isU := first.Fwd == 1 && view.ID == uid
			isV := first.Bwd == 1 && view.ID == vid
			if !isU && !isV {
				return false
			}
			sc.ces = append(sc.ces, completionEdge{payload: first.Payload, real: false})
		case 2:
			// Intermediate vertex: consecutive ranks, not an endpoint.
			if view.ID == uid || view.ID == vid {
				return false
			}
			d := group[0].Fwd - group[1].Fwd
			if d != 1 && d != -1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// collectEntries gathers into sc.entries the node entries across all
// incident completion edges, one per node id, requiring byte-identical
// copies (the same pointer, or else the same canonical encoding), valid
// path chains, and in-budget lanes, and counts in sc.uses how many
// certificate paths name each entry's node.
func (s *Scheme) collectEntries(sc *vertexScratch) bool {
	sc.entries, sc.uses, sc.claimed = sc.entries[:0], sc.uses[:0], false
	rootID := -1
	for _, ce := range sc.ces {
		path := ce.payload.Path
		if !s.validChain(path) {
			return false
		}
		if rootID == -1 {
			rootID = path[0].NodeID
		} else if rootID != path[0].NodeID {
			return false
		}
		for _, e := range path {
			if r := sc.row(e.NodeID); r >= 0 {
				if !sameEntry(sc.entries[r], e) {
					return false
				}
				sc.uses[r]++
				continue
			}
			sc.addEntry(e)
		}
	}
	return true
}

// validChain checks the root-to-owner structure of one certificate path.
func (s *Scheme) validChain(path []*NodeEntry) bool {
	if len(path) < 2 {
		return false
	}
	for i, e := range path {
		if !e.wellFormed() {
			return false
		}
		if !s.validLanes(e.Lanes) || !idsAligned(e.Lanes, e.InIDs, e.OutIDs) || e.NodeID < 0 {
			return false
		}
		if i == 0 {
			if e.Kind != lanewidth.TNode || e.ParentID != -1 {
				return false
			}
			continue
		}
		prev := path[i-1]
		switch prev.Kind {
		case lanewidth.TNode:
			// Members of a T-node's tree follow it.
			if e.Kind != lanewidth.ENode && e.Kind != lanewidth.PNode && e.Kind != lanewidth.BNode {
				return false
			}
			if e.ParentID != prev.NodeID {
				return false
			}
		case lanewidth.BNode:
			// Only T-node operands continue the path.
			if e.Kind != lanewidth.TNode || prev.Left == nil || prev.Right == nil {
				return false
			}
			if e.NodeID != prev.Left.NodeID && e.NodeID != prev.Right.NodeID {
				return false
			}
			if e.ParentID != -1 {
				return false
			}
		default:
			return false // E/P own their edges; nothing follows them
		}
	}
	last := path[len(path)-1]
	return last.Kind == lanewidth.ENode || last.Kind == lanewidth.PNode || last.Kind == lanewidth.BNode
}

// idsAligned reports whether every id slice carries exactly one id per lane.
func idsAligned(lanes []int, ids ...[]uint64) bool {
	for _, s := range ids {
		if len(s) != len(lanes) {
			return false
		}
	}
	return true
}

func (s *Scheme) validLanes(lanes []int) bool {
	if len(lanes) == 0 {
		return false
	}
	for i, l := range lanes {
		if l < 0 || l >= s.MaxLanes {
			return false
		}
		if i > 0 && lanes[i-1] >= l {
			return false
		}
	}
	return true
}

// checkEntryStructure runs the vertex-independent checks on each entry:
// kind shapes, class recomputations (Lemma 6.4 and Proposition 6.1), and
// tree-member folds (Lemma 6.5).
func (s *Scheme) checkEntryStructure(entries []*NodeEntry) bool {
	for _, e := range entries {
		switch e.Kind {
		case lanewidth.ENode:
			if !s.checkENode(e) {
				return false
			}
		case lanewidth.PNode:
			if !s.checkPNode(e) {
				return false
			}
		case lanewidth.BNode:
			if !s.checkBNode(e) {
				return false
			}
		case lanewidth.TNode:
			if !s.checkTNode(e) {
				return false
			}
		default:
			return false
		}
		if e.ParentID != -1 {
			if !s.checkMemberFold(e) {
				return false
			}
		} else if len(e.Children) != 0 || len(e.MergedOutIDs) != 0 {
			return false
		}
	}
	return true
}

func (s *Scheme) classMatches(claimed int, cls *algebra.Class, err error) bool {
	if err != nil {
		return false
	}
	id, ok := s.Reg.Lookup(cls)
	if !ok {
		// The honest prover interned every class it used; an unknown class
		// can only come from a forged label. Intern for comparison.
		id = s.Reg.Intern(cls)
	}
	return id == claimed
}

func (s *Scheme) checkENode(e *NodeEntry) bool {
	if len(e.Lanes) != 1 || len(e.PathIDs) != 2 || len(e.RealBits) != 1 || len(e.VInputs) != 2 {
		return false
	}
	if e.PathIDs[0] == e.PathIDs[1] || e.InIDs[0] != e.PathIDs[0] || e.OutIDs[0] != e.PathIDs[1] {
		return false
	}
	cls, err := s.baseE(e.Lanes[0], e.RealBits[0], e.VInputs)
	return s.classMatches(e.Classes[0], cls, err)
}

func (s *Scheme) checkPNode(e *NodeEntry) bool {
	if len(e.PathIDs) != len(e.Lanes) || len(e.RealBits) != len(e.PathIDs)-1 ||
		len(e.VInputs) != len(e.PathIDs) {
		return false
	}
	for i, id := range e.PathIDs {
		if slices.Contains(e.PathIDs[:i], id) || e.InIDs[i] != id || e.OutIDs[i] != id {
			return false
		}
	}
	cls, err := s.baseP(e.Lanes, e.RealBits, e.VInputs)
	return s.classMatches(e.Classes[0], cls, err)
}

func (s *Scheme) checkBNode(e *NodeEntry) bool {
	if e.Left == nil || e.Right == nil {
		return false
	}
	for k, op := range e.operands() {
		if !s.validLanes(op.Lanes) || !idsAligned(op.Lanes, op.InIDs, op.OutIDs) {
			return false
		}
		switch op.Kind {
		case lanewidth.VNode:
			if len(op.Lanes) != 1 || op.InIDs[0] != op.OutIDs[0] {
				return false
			}
			cls, err := s.baseV(op.Lanes[0], op.Input)
			if !s.classMatches(e.Classes[e.opsAt()+k], cls, err) {
				return false
			}
		case lanewidth.TNode:
			// The operand's own entry is checked where visible; here only
			// its shape, above.
		default:
			return false
		}
	}
	if !lanesDisjoint(e.Left.Lanes, e.Right.Lanes) {
		return false
	}
	// The operands' lanes must be exactly e.Lanes. Both operand lists are
	// strictly increasing (just checked), and so is e.Lanes (validChain),
	// so two disjoint subsets whose sizes add up to len(e.Lanes) are it.
	if len(e.Left.Lanes)+len(e.Right.Lanes) != len(e.Lanes) ||
		!laneSubset(e.Left.Lanes, e.Lanes) || !laneSubset(e.Right.Lanes, e.Lanes) {
		return false
	}
	// Terminals inherited from the operands (every operand lane is one of
	// e.Lanes, checked just above).
	for _, op := range e.operands() {
		for i, l := range op.Lanes {
			j := slices.Index(e.Lanes, l)
			if e.InIDs[j] != op.InIDs[i] || e.OutIDs[j] != op.OutIDs[i] {
				return false
			}
		}
	}
	if !slices.Contains(e.Left.Lanes, e.LaneI) || !slices.Contains(e.Right.Lanes, e.LaneJ) {
		return false
	}
	// fB recomputation (Proposition 6.1).
	lc := s.Reg.Class(e.Classes[e.opsAt()])
	rc := s.Reg.Class(e.Classes[e.opsAt()+1])
	if lc == nil || rc == nil {
		return false
	}
	bridgeLabel := 0
	if e.BridgeReal {
		bridgeLabel = algebra.EdgeReal
	}
	cls, err := s.bridgeMerge(lc, rc, e.LaneI, e.LaneJ, bridgeLabel)
	return s.classMatches(e.Classes[0], cls, err)
}

func (s *Scheme) checkTNode(e *NodeEntry) bool {
	rm := e.RootMember
	if rm == nil {
		return false
	}
	if !slices.Equal(rm.Lanes, e.Lanes) || !slices.Equal(rm.InIDs, e.InIDs) ||
		!slices.Equal(rm.MergedOutIDs, e.OutIDs) {
		return false
	}
	return e.Classes[len(e.Classes)-1] == e.Classes[0]
}

// checkMemberFold verifies the Lemma 6.5 T-node fold at a member entry:
// merged class = fP over children of the member's own class, merged
// out-terminals overlay the children's, sibling lanes disjoint, and each
// child's in-terminals glue onto this member's out-terminals.
func (s *Scheme) checkMemberFold(e *NodeEntry) bool {
	acc := s.Reg.Class(e.Classes[0])
	if acc == nil || !idsAligned(e.Lanes, e.MergedOutIDs) {
		return false
	}
	var buf [8]uint64
	mergedOut := append(buf[:0], e.OutIDs...)
	for ci, c := range e.Children {
		if !s.validLanes(c.Lanes) || !idsAligned(c.Lanes, c.InIDs, c.MergedOutIDs) ||
			!laneSubset(c.Lanes, e.Lanes) {
			return false
		}
		for _, prev := range e.Children[:ci] {
			if !lanesDisjoint(c.Lanes, prev.Lanes) {
				return false
			}
		}
		for i, l := range c.Lanes {
			j := slices.Index(e.Lanes, l)
			if c.InIDs[i] != e.OutIDs[j] {
				return false // gluing violated
			}
			mergedOut[j] = c.MergedOutIDs[i]
		}
		childCls := s.Reg.Class(e.Classes[2+ci])
		if childCls == nil {
			return false
		}
		next, err := s.parentMerge(childCls, acc)
		if err != nil {
			return false
		}
		acc = next
	}
	if !s.classMatches(e.Classes[1], acc, nil) {
		return false
	}
	return slices.Equal(e.MergedOutIDs, mergedOut)
}

// checkRoles runs the vertex-specific checks: ownership counts, terminal
// identities, operand and child/parent bindings.
func (s *Scheme) checkRoles(view *VertexView, sc *vertexScratch) bool {
	// sc.ownedBy(nodeID) = incident completion edges whose owner is that node.
	sc.owned = sc.owned[:0]
	for _, ce := range sc.ces {
		last := ce.payload.Path[len(ce.payload.Path)-1]
		sc.owned = append(sc.owned, ownedEdge{node: last.NodeID, real: ce.real, pos: ce.payload.OwnerPos})
	}
	slices.SortFunc(sc.owned, func(a, b ownedEdge) int { return cmp.Compare(a.node, b.node) })

	for i, e := range sc.entries {
		switch e.Kind {
		case lanewidth.ENode:
			isTerminal := false
			for i, id := range e.PathIDs {
				if id == view.ID {
					isTerminal = true
					if e.VInputs[i] != view.Input {
						return false // entry lies about this vertex's input
					}
				}
			}
			oe := sc.ownedBy(e.NodeID)
			if isTerminal {
				if len(oe) != 1 || oe[0].real != e.RealBits[0] {
					return false
				}
			} else if len(oe) != 0 {
				return false
			}
		case lanewidth.PNode:
			myPos := -1
			for i, id := range e.PathIDs {
				if id == view.ID {
					myPos = i
					break
				}
			}
			oe := sc.ownedBy(e.NodeID)
			if myPos == -1 {
				if len(oe) != 0 {
					return false
				}
				break
			}
			if e.VInputs[myPos] != view.Input {
				return false // entry lies about this vertex's input
			}
			// The vertex owns exactly its path edges: position myPos-1 (the
			// edge before it) and myPos (the edge after it), where they
			// exist, each once. seenPos[i] marks position myPos-1+i.
			want := 0
			if myPos > 0 {
				want++
			}
			if myPos < len(e.PathIDs)-1 {
				want++
			}
			if len(oe) != want {
				return false
			}
			var seenPos [2]bool
			for _, o := range oe {
				before := o.pos == myPos-1 && myPos > 0
				after := o.pos == myPos && myPos < len(e.PathIDs)-1
				if !before && !after || seenPos[o.pos-myPos+1] {
					return false
				}
				if o.real != e.RealBits[o.pos] {
					return false
				}
				seenPos[o.pos-myPos+1] = true
			}
		case lanewidth.BNode:
			bu := idOn(e.Left.Lanes, e.Left.OutIDs, e.LaneI)
			bv := idOn(e.Right.Lanes, e.Right.OutIDs, e.LaneJ)
			isEndpoint := view.ID == bu || view.ID == bv
			oe := sc.ownedBy(e.NodeID)
			if isEndpoint {
				if len(oe) != 1 || oe[0].real != e.BridgeReal {
					return false
				}
			} else if len(oe) != 0 {
				return false
			}
			// V-node operand vertex: its only appearance in this node's
			// subgraph is the bridge edge.
			for _, op := range e.operands() {
				if op.Kind != lanewidth.VNode || view.ID != op.InIDs[0] {
					continue
				}
				if op.Input != view.Input {
					return false // summary lies about this vertex's input
				}
				if sc.uses[i] != 1 || len(oe) != 1 {
					return false
				}
			}
			// Operand T entries visible here must match the summaries.
			for k, op := range e.operands() {
				if op.Kind != lanewidth.TNode {
					continue
				}
				if t := sc.entry(op.NodeID); t != nil {
					if t.Kind != lanewidth.TNode || !slices.Equal(t.Lanes, op.Lanes) ||
						!slices.Equal(t.InIDs, op.InIDs) || !slices.Equal(t.OutIDs, op.OutIDs) ||
						t.Classes[0] != e.Classes[e.opsAt()+k] {
						return false
					}
				}
			}
		}

		// Child-summary binding (Lemma 6.5): if this vertex is a listed
		// child's in-terminal, the child's actual entry must be visible and
		// match.
		for ci, c := range e.Children {
			if !slices.Contains(c.InIDs, view.ID) {
				continue
			}
			child := sc.entry(c.NodeID)
			if child == nil || child.ParentID != e.ParentID {
				return false
			}
			if !slices.Equal(child.Lanes, c.Lanes) || !slices.Equal(child.InIDs, c.InIDs) ||
				!slices.Equal(child.MergedOutIDs, c.MergedOutIDs) ||
				child.Classes[1] != e.Classes[2+ci] {
				return false
			}
		}

		// Parent binding: a member whose in-terminal is this vertex is
		// either its T-node's root member or listed by exactly one parent.
		if e.ParentID != -1 && slices.Contains(e.InIDs, view.ID) {
			if !s.checkParentBinding(e, sc) {
				return false
			}
		}
	}
	return true
}

func (s *Scheme) checkParentBinding(e *NodeEntry, sc *vertexScratch) bool {
	t := sc.entry(e.ParentID)
	isRoot := t != nil && t.Kind == lanewidth.TNode && t.RootMember != nil &&
		t.RootMember.NodeID == e.NodeID
	parents := sc.parentClaims(e.ParentID, e.NodeID)
	if isRoot {
		return parents == 0
	}
	return parents == 1
}

// checkRootAndPointing verifies acceptance at the root class and the
// root-anchor pointing scheme.
func (s *Scheme) checkRootAndPointing(view *VertexView, sc *vertexScratch) bool {
	if len(sc.ces) == 0 {
		return false
	}
	root := sc.ces[0].payload.Path[0]
	rootCls := s.Reg.Class(root.Classes[0])
	if rootCls == nil {
		return false
	}
	acc, err := algebra.Accept(s.Prop, rootCls)
	if err != nil || !acc {
		return false
	}
	// Pointing target: the root member's in-terminal on its first lane.
	if root.RootMember == nil || len(root.RootMember.InIDs) == 0 {
		return false
	}
	x := root.RootMember.InIDs[0]
	sc.pls = sc.pls[:0]
	for _, l := range view.Labels {
		if l.Pointing == nil {
			return false
		}
		sc.pls = append(sc.pls, *l.Pointing)
	}
	return cert.VerifyPointingAt(view.ID, x, sc.pls, false)
}

func laneSubset(sub, super []int) bool {
	for _, l := range sub {
		if !slices.Contains(super, l) {
			return false
		}
	}
	return true
}
