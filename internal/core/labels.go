// Package core implements the paper's main contribution (Section 6 and
// Theorem 1): an O(log n)-bit proof labeling scheme deciding any supported
// MSO₂ property on graphs of bounded pathwidth.
//
// The prover pipeline is: path decomposition → lane partition (Section 4) →
// completion + embedding → lanewidth transcript (Proposition 5.2) →
// hierarchical decomposition (Proposition 5.6) → homomorphism classes
// (Proposition 6.1) → per-edge certificates (Lemmas 6.4/6.5) → embedding
// certification (Theorem 1). The verifier re-runs every local check of
// Section 6.2 at each vertex from its identifier and incident edge labels
// alone.
package core

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// ChildSummary is B(Tree-merge(T_child)) as carried on the edges of the
// parent member (Lemma 6.5, T-node case). Sibling lane sets are disjoint,
// so a member stores at most k of these. The id slices are lane-aligned:
// InIDs[i] and MergedOutIDs[i] are the terminals on Lanes[i].
type ChildSummary struct {
	NodeID        int
	Lanes         []int
	InIDs         []uint64
	MergedOutIDs  []uint64
	MergedClassID int
}

// OperandSummary is the basic information of a B-node operand (a V-node or
// T-node), carried on the edges of the B-node's subgraph (Lemma 6.5,
// B-node case). InIDs and OutIDs are lane-aligned, as in ChildSummary.
type OperandSummary struct {
	NodeID  int
	Kind    lanewidth.Kind
	Lanes   []int
	InIDs   []uint64
	OutIDs  []uint64
	ClassID int
	Input   int // V-node operands: the vertex's input label
}

// encCache memoizes the canonical encoding of a component many labels
// splice in: a node entry or a completion-edge certificate. The encoding is
// held once, as its key — the packed bytes followed by the decimal bit
// count — and spliced from the key's byte prefix. Components are immutable
// once handed out by the prover or a Decoder (corruption experiments go through
// Clone, which starts with an empty cache), so the encoding is computed at
// most once; the sync.Once makes concurrent verifiers (VerifyParallelCtx,
// dist) race-free.
type encCache struct {
	once  sync.Once
	key   string
	nbits int
}

// materialize runs the raw encoder once and freezes its output.
func (c *encCache) materialize(raw func(*bits.Writer)) {
	c.once.Do(func() {
		var w bits.Writer
		raw(&w)
		c.nbits = w.Bits()
		c.key = string(w.Buffer()) + strconv.Itoa(c.nbits)
	})
}

// splice appends the cached encoding to w.
func (c *encCache) splice(w *bits.Writer) {
	w.WriteChunk(c.key[:(c.nbits+7)/8], c.nbits)
}

// NodeEntry is the basic information B(G) of one hierarchy node, stored on
// every edge of the node's subgraph. An edge's certificate holds the entries
// of the ≤ 2k nodes on its root-to-owner path (Observation 5.5). The id
// slices are aligned with the sorted Lanes: InIDs[i], OutIDs[i] and
// MergedOutIDs[i] are the terminals on Lanes[i], exactly as the wire
// carries them.
type NodeEntry struct {
	NodeID  int
	Kind    lanewidth.Kind
	Lanes   []int
	InIDs   []uint64
	OutIDs  []uint64
	ClassID int

	// Tree-member fields (set when the node is a member of a T-node's tree;
	// MergedOutIDs is nil otherwise).
	ParentID      int // enclosing T-node id
	MergedClassID int
	MergedOutIDs  []uint64
	Children      []ChildSummary

	// E-node: PathIDs = [in, out]; RealBits[0] marks the edge real.
	// P-node: PathIDs in lane order; RealBits per consecutive path edge.
	// VInputs carries the vertices' input labels in PathIDs order (each
	// vertex verifies its own entry against its state).
	PathIDs  []uint64
	RealBits []bool
	VInputs  []int

	// B-node.
	LaneI, LaneJ int
	BridgeReal   bool
	Left, Right  *OperandSummary

	// T-node: summary of its tree's root member.
	RootMember *ChildSummary

	cache encCache
}

// CEdgeLabel is the certificate of one completion edge: the node entries
// along its root-to-owner path, plus the edge's position when its owner is
// a P-node (whose several edges share the entry).
type CEdgeLabel struct {
	Path     []*NodeEntry
	OwnerPos int // P-node owners: edge joins PathIDs[OwnerPos], PathIDs[OwnerPos+1]

	cache encCache

	// sizeOnce/size memoize Bits, computed by accounting alone.
	sizeOnce sync.Once
	size     int
}

// EmbEntry simulates a virtual completion edge on one real edge of its
// embedding path (Theorem 1's embedding certification): the virtual edge's
// endpoint identifiers, this real edge's 1-based rank in both directions,
// and a copy of the virtual edge's certificate.
type EmbEntry struct {
	UID, VID uint64
	Fwd, Bwd int
	Payload  *CEdgeLabel
}

// EdgeLabel is the complete label of a real edge. It caches no encoding of
// its own — AppendLabel writes it straight into the buffer that needs it,
// splicing in the cached encodings of its shared components — only its
// exact size.
type EdgeLabel struct {
	Own      *CEdgeLabel
	Emb      []EmbEntry
	Pointing *cert.PointingLabel // root-anchor pointing scheme (Prop 2.2)

	// sizeOnce/size memoize Bits: proof-size accounting (Labeling.MaxBits,
	// experiments E1/E8/E9) and buffer sizing must not pay for encoding.
	sizeOnce sync.Once
	size     int
}

// Labeling is a full proof assignment.
type Labeling struct {
	// Edges maps each real edge to its label.
	Edges map[graph.Edge]*EdgeLabel
}

// MaxBits returns the proof size: the largest edge label in bits.
func (l *Labeling) MaxBits() int {
	best := 0
	for _, el := range l.Edges {
		if b := el.Bits(); b > best {
			best = b
		}
	}
	return best
}

// --- canonical encodings -------------------------------------------------

// writeIDs emits one id per lane from a lane-aligned slice. The wire always
// carries exactly one id per lane; a missing id (a nil MergedOutIDs outside
// any tree) is written as zero.
func writeIDs(w *bits.Writer, lanes []int, ids []uint64) {
	for i := range lanes {
		var id uint64
		if i < len(ids) {
			id = ids[i]
		}
		w.WriteUvarint(id)
	}
}

func writeLanes(w *bits.Writer, lanes []int) {
	w.WriteUvarint(uint64(len(lanes)))
	for _, l := range lanes {
		w.WriteUvarint(uint64(l))
	}
}

func (c *ChildSummary) encode(w *bits.Writer) {
	w.WriteUvarint(uint64(c.NodeID))
	writeLanes(w, c.Lanes)
	writeIDs(w, c.Lanes, c.InIDs)
	writeIDs(w, c.Lanes, c.MergedOutIDs)
	w.WriteUvarint(uint64(c.MergedClassID))
}

func (o *OperandSummary) encode(w *bits.Writer) {
	w.WriteUvarint(uint64(o.NodeID))
	w.WriteUint(uint64(o.Kind), 3)
	writeLanes(w, o.Lanes)
	writeIDs(w, o.Lanes, o.InIDs)
	writeIDs(w, o.Lanes, o.OutIDs)
	w.WriteUvarint(uint64(o.ClassID))
	w.WriteUvarint(uint64(o.Input))
}

// encode appends the entry's canonical encoding, memoized on first use.
func (n *NodeEntry) encode(w *bits.Writer) {
	n.cache.materialize(n.encodeRaw)
	n.cache.splice(w)
}

// encodeRaw is the bit-level definition of the entry's canonical encoding;
// callers go through encode/Key, which cache its output.
func (n *NodeEntry) encodeRaw(w *bits.Writer) {
	w.WriteUvarint(uint64(n.NodeID))
	w.WriteUint(uint64(n.Kind), 3)
	writeLanes(w, n.Lanes)
	writeIDs(w, n.Lanes, n.InIDs)
	writeIDs(w, n.Lanes, n.OutIDs)
	w.WriteUvarint(uint64(n.ClassID))
	w.WriteUvarint(uint64(n.ParentID + 1))
	w.WriteUvarint(uint64(n.MergedClassID))
	writeIDs(w, n.Lanes, n.MergedOutIDs)
	w.WriteUvarint(uint64(len(n.Children)))
	for i := range n.Children {
		n.Children[i].encode(w)
	}
	w.WriteUvarint(uint64(len(n.PathIDs)))
	for _, id := range n.PathIDs {
		w.WriteUvarint(id)
	}
	for _, b := range n.RealBits {
		w.WriteBit(b)
	}
	for _, in := range n.VInputs {
		w.WriteUvarint(uint64(in))
	}
	w.WriteUvarint(uint64(n.LaneI))
	w.WriteUvarint(uint64(n.LaneJ))
	w.WriteBit(n.BridgeReal)
	for _, op := range []*OperandSummary{n.Left, n.Right} {
		if op == nil {
			w.WriteBit(false)
			continue
		}
		w.WriteBit(true)
		op.encode(w)
	}
	if n.RootMember == nil {
		w.WriteBit(false)
	} else {
		w.WriteBit(true)
		n.RootMember.encode(w)
	}
}

// Key returns a canonical encoding of the entry (payload bytes plus the
// exact bit count, so partial final bytes cannot alias), used for the
// per-vertex consistency checks ("all incident edges agree on B(G)").
// The encoding is memoized: repeated calls return the same string instance,
// so honest-path comparisons are pointer-equal and O(1).
func (n *NodeEntry) Key() string {
	n.cache.materialize(n.encodeRaw)
	return n.cache.key
}

func (c *CEdgeLabel) encode(w *bits.Writer) {
	c.cache.materialize(c.encodeRaw)
	c.cache.splice(w)
}

func (c *CEdgeLabel) encodeRaw(w *bits.Writer) {
	w.Grow(c.Bits())
	w.WriteUvarint(uint64(len(c.Path)))
	for _, e := range c.Path {
		e.encode(w)
	}
	w.WriteUvarint(uint64(c.OwnerPos))
}

// Key returns a canonical encoding of the certificate, memoized on first use.
func (c *CEdgeLabel) Key() string {
	c.cache.materialize(c.encodeRaw)
	return c.cache.key
}

// Bits returns the exact encoded size of the certificate (memoized) by
// size accounting alone — the entry encodings it splices are already
// cached, so no byte assembly happens.
func (c *CEdgeLabel) Bits() int {
	c.sizeOnce.Do(func() {
		n := bits.UvarintLen(uint64(len(c.Path)))
		for _, e := range c.Path {
			e.cache.materialize(e.encodeRaw)
			n += e.cache.nbits
		}
		n += bits.UvarintLen(uint64(c.OwnerPos))
		c.size = n
	})
	return c.size
}

// Bits returns the exact encoded size of the label (memoized). The size is
// computed by accounting, mirroring encode bit for bit, so calling it never
// encodes the label.
func (l *EdgeLabel) Bits() int {
	l.sizeOnce.Do(func() {
		n := 1
		if l.Own != nil {
			n += l.Own.Bits()
		}
		n += bits.UvarintLen(uint64(len(l.Emb)))
		for _, e := range l.Emb {
			n += bits.UvarintLen(e.UID) + bits.UvarintLen(e.VID) +
				bits.UvarintLen(uint64(e.Fwd)) + bits.UvarintLen(uint64(e.Bwd)) +
				e.Payload.Bits()
		}
		n++
		if l.Pointing != nil {
			n += l.Pointing.Bits()
		}
		l.size = n
	})
	return l.size
}

// Key returns a canonical encoding of the whole edge label (bytes plus bit
// count), used for the cross-endpoint agreement check of the distributed
// simulator. It encodes on every call; callers compare label pointers
// first, so the honest path (both endpoints holding the same label) never
// gets here.
func (l *EdgeLabel) Key() string {
	data, nbits := EncodeLabel(l)
	return string(data) + strconv.Itoa(nbits)
}

func (l *EdgeLabel) encode(w *bits.Writer) {
	if l.Own != nil {
		w.WriteBit(true)
		l.Own.encode(w)
	} else {
		w.WriteBit(false)
	}
	w.WriteUvarint(uint64(len(l.Emb)))
	for _, e := range l.Emb {
		w.WriteUvarint(e.UID)
		w.WriteUvarint(e.VID)
		w.WriteUvarint(uint64(e.Fwd))
		w.WriteUvarint(uint64(e.Bwd))
		e.Payload.encode(w)
	}
	if l.Pointing != nil {
		w.WriteBit(true)
		w.WriteUvarint(l.Pointing.X)
		w.WriteUvarint(l.Pointing.UID)
		w.WriteUvarint(l.Pointing.VID)
		w.WriteUvarint(uint64(l.Pointing.DU))
		w.WriteUvarint(uint64(l.Pointing.DV))
	} else {
		w.WriteBit(false)
	}
}

// sortedLanes returns a sorted copy.
func sortedLanes(lanes []int) []int {
	out := append([]int(nil), lanes...)
	sort.Ints(out)
	return out
}

func lanesDisjoint(a, b []int) bool {
	for _, l := range a {
		for _, m := range b {
			if l == m {
				return false
			}
		}
	}
	return true
}

// laneIndex returns the position of lane l in a lane list, or -1.
func laneIndex(lanes []int, l int) int {
	for i, m := range lanes {
		if m == l {
			return i
		}
	}
	return -1
}

// idOn returns the id a lane-aligned slice holds for lane l, or 0 when l is
// not one of the lanes.
func idOn(lanes []int, ids []uint64, l int) uint64 {
	if i := laneIndex(lanes, l); i >= 0 && i < len(ids) {
		return ids[i]
	}
	return 0
}
