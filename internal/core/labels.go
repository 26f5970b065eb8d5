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
	mathbits "math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/algebra"
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

// encCache memoizes the canonical encoding of a node entry, which every
// label carrying the entry splices in. The encoding is held once, as its
// key — the packed bytes followed by the decimal bit count — and spliced
// from the key's byte prefix. Entries are immutable once handed out by the
// prover or a Decoder (corruption experiments go through Clone, which
// starts with an empty cache), so the encoding is computed at most once;
// the sync.Once makes concurrent verifiers (VerifyParallelCtx, dist)
// race-free.
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
// a P-node (whose several edges share the entry). It has no encoding of its
// own: on the wire it is a list of rows of the entry table of the label
// carrying it (see EdgeLabel), so its bits depend on that label.
type CEdgeLabel struct {
	Path     []*NodeEntry
	OwnerPos int // P-node owners: edge joins PathIDs[OwnerPos], PathIDs[OwnerPos+1]
}

// sameCert reports whether two certificates have the same content: the same
// owner position and, position by position, the same entry — the same
// pointer, or else the same canonical encoding.
func sameCert(a, b *CEdgeLabel) bool {
	if a == b {
		return true
	}
	if a.OwnerPos != b.OwnerPos || len(a.Path) != len(b.Path) {
		return false
	}
	for i, e := range a.Path {
		if !sameEntry(e, b.Path[i]) {
			return false
		}
	}
	return true
}

// sameEntry reports whether two node entries have the same canonical
// encoding. Pointers and node ids are compared first, so shared entries
// and entries of different nodes never have their keys compared.
func sameEntry(a, b *NodeEntry) bool {
	return a == b || a.NodeID == b.NodeID && a.Key() == b.Key()
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
// splicing in the cached encodings of its node entries — only its exact
// size.
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
//
// Identifiers are close to uniform, so the wire writes them in a fixed
// width instead of a varint: each node entry writes the bit length of its
// largest vertex id and of its largest node id, each an Elias-gamma varint,
// and then every vertex id and node id in exactly that many bits. The
// widths are per entry, so an entry's encoding stays self-contained (the
// prover and the Decoder share entries by their exact bits) and the decoder
// can require each width to be exactly the bit length of the entry's widest
// id, which keeps the encoding canonical. Edge labels do the same for their
// own vertex ids. Class ids are written as a fixed-width content hash plus
// a varint collision rank (writeClassID).
//
// A label writes each distinct node entry once: an entry table of its
// entries in first-use order (its own certificate's path, then each
// embedding payload's path), then every certificate as a path length, one
// row index per path entry in exactly rowWidth(rows) bits, and the owner
// position. The certificates of one label share most of their root-side
// entries, so the table is what keeps a label's size near one path.

// writeIDs emits one id per lane from a lane-aligned slice, each in width
// bits. The wire always carries exactly one id per lane; a missing id is
// written as zero.
func writeIDs(w *bits.Writer, width int, lanes []int, ids []uint64) {
	for i := range lanes {
		var id uint64
		if i < len(ids) {
			id = ids[i]
		}
		w.WriteUint(id, width)
	}
}

// maxIDs folds the ids writeIDs writes for these lanes into acc.
func maxIDs(acc uint64, lanes []int, ids []uint64) uint64 {
	for _, id := range ids[:min(len(ids), len(lanes))] {
		acc = max(acc, id)
	}
	return acc
}

// writeClassID emits a class id as its content hash in exactly
// algebra.ClassHashBits bits, then its collision rank as a varint.
func writeClassID(w *bits.Writer, id int) {
	w.WriteUint(uint64(id)&(1<<algebra.ClassHashBits-1), algebra.ClassHashBits)
	w.WriteUvarint(uint64(id) >> algebra.ClassHashBits)
}

func writeLanes(w *bits.Writer, lanes []int) {
	w.WriteUvarint(uint64(len(lanes)))
	for _, l := range lanes {
		w.WriteUvarint(uint64(l))
	}
}

// idWidths is the pair of fixed widths a node entry writes its vertex ids
// and its node ids in.
type idWidths struct{ vertex, node int }

func (c *ChildSummary) encode(w *bits.Writer, wd idWidths) {
	w.WriteUint(uint64(c.NodeID), wd.node)
	writeLanes(w, c.Lanes)
	writeIDs(w, wd.vertex, c.Lanes, c.InIDs)
	writeIDs(w, wd.vertex, c.Lanes, c.MergedOutIDs)
	writeClassID(w, c.MergedClassID)
}

func (c *ChildSummary) maxIDs(v, node uint64) (uint64, uint64) {
	return maxIDs(maxIDs(v, c.Lanes, c.InIDs), c.Lanes, c.MergedOutIDs), max(node, uint64(c.NodeID))
}

func (o *OperandSummary) encode(w *bits.Writer, wd idWidths) {
	w.WriteUint(uint64(o.NodeID), wd.node)
	w.WriteUint(uint64(o.Kind), 3)
	writeLanes(w, o.Lanes)
	writeIDs(w, wd.vertex, o.Lanes, o.InIDs)
	writeIDs(w, wd.vertex, o.Lanes, o.OutIDs)
	writeClassID(w, o.ClassID)
	w.WriteUvarint(uint64(o.Input))
}

func (o *OperandSummary) maxIDs(v, node uint64) (uint64, uint64) {
	return maxIDs(maxIDs(v, o.Lanes, o.InIDs), o.Lanes, o.OutIDs), max(node, uint64(o.NodeID))
}

// member reports whether the entry is a member of a T-node's tree. Only
// members write the tree-member fields.
func (n *NodeEntry) member() bool { return n.ParentID != -1 }

// widths returns the bit lengths of the largest vertex id and the largest
// node id the entry writes.
func (n *NodeEntry) widths() idWidths {
	v := maxIDs(maxIDs(0, n.Lanes, n.InIDs), n.Lanes, n.OutIDs)
	node := uint64(n.NodeID)
	if n.member() {
		v = maxIDs(v, n.Lanes, n.MergedOutIDs)
		node = max(node, uint64(n.ParentID))
		for i := range n.Children {
			v, node = n.Children[i].maxIDs(v, node)
		}
	}
	for _, id := range n.PathIDs {
		v = max(v, id)
	}
	for _, op := range []*OperandSummary{n.Left, n.Right} {
		if op != nil {
			v, node = op.maxIDs(v, node)
		}
	}
	if n.RootMember != nil {
		v, node = n.RootMember.maxIDs(v, node)
	}
	return idWidths{vertex: mathbits.Len64(v), node: mathbits.Len64(node)}
}

// encode appends the entry's canonical encoding, memoized on first use.
func (n *NodeEntry) encode(w *bits.Writer) {
	n.cache.materialize(n.encodeRaw)
	n.cache.splice(w)
}

// encodeRaw is the bit-level definition of the entry's canonical encoding;
// callers go through encode/Key, which cache its output.
func (n *NodeEntry) encodeRaw(w *bits.Writer) {
	wd := n.widths()
	w.WriteUvarint(uint64(wd.vertex))
	w.WriteUvarint(uint64(wd.node))
	w.WriteUint(uint64(n.NodeID), wd.node)
	w.WriteUint(uint64(n.Kind), 3)
	writeLanes(w, n.Lanes)
	writeIDs(w, wd.vertex, n.Lanes, n.InIDs)
	writeIDs(w, wd.vertex, n.Lanes, n.OutIDs)
	writeClassID(w, n.ClassID)
	w.WriteBit(n.member())
	if n.member() {
		w.WriteUint(uint64(n.ParentID), wd.node)
		writeClassID(w, n.MergedClassID)
		writeIDs(w, wd.vertex, n.Lanes, n.MergedOutIDs)
		w.WriteUvarint(uint64(len(n.Children)))
		for i := range n.Children {
			n.Children[i].encode(w, wd)
		}
	}
	w.WriteUvarint(uint64(len(n.PathIDs)))
	for _, id := range n.PathIDs {
		w.WriteUint(id, wd.vertex)
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
		op.encode(w, wd)
	}
	if n.RootMember == nil {
		w.WriteBit(false)
	} else {
		w.WriteBit(true)
		n.RootMember.encode(w, wd)
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

// bits returns the entry's encoded size, materializing its encoding.
func (n *NodeEntry) bits() int {
	n.cache.materialize(n.encodeRaw)
	return n.cache.nbits
}

// linearRows is the table size up to which table finds rows by a linear
// scan; larger tables (long paths under large lane budgets, or
// hostile decoded labels) switch to a map so encoding stays linear.
const linearRows = 32

// table returns the label's entry table, appended to the given buffers:
// its distinct node entries, merged by canonical encoding, in first-use
// order (its own certificate's path, then each embedding payload's path),
// and the row of every certificate path entry in that same order.
func (l *EdgeLabel) table(rows []*NodeEntry, idx []int) ([]*NodeEntry, []int) {
	// Rows are found by pointer first, then by node id and key: entries the
	// prover or a Decoder shares match without a row being loaded, and the
	// rows' node ids, kept beside them, rule out most other rows.
	var idBuf [16]int
	ids := idBuf[:0]
	var byKey map[string]int
	for i := -1; i < len(l.Emb); i++ {
		c := l.Own
		if i >= 0 {
			c = l.Emb[i].Payload
		} else if c == nil {
			continue
		}
	path:
		for _, e := range c.Path {
			if byKey == nil {
				if r := slices.Index(rows, e); r >= 0 {
					idx = append(idx, r)
					continue
				}
				for r, id := range ids {
					if id == e.NodeID && rows[r].Key() == e.Key() {
						idx = append(idx, r)
						continue path
					}
				}
			} else if r, ok := byKey[e.Key()]; ok {
				idx = append(idx, r)
				continue
			}
			idx = append(idx, len(rows))
			rows, ids = append(rows, e), append(ids, e.NodeID)
			switch {
			case byKey != nil:
				byKey[e.Key()] = len(rows) - 1
			case len(rows) > linearRows:
				byKey = make(map[string]int, 2*len(rows))
				for r, f := range rows {
					byKey[f.Key()] = r
				}
			}
		}
	}
	return rows, idx
}

// rowWidth is the fixed width of a row index into a table of n rows: the
// bit length of the largest index, n−1.
func rowWidth(n int) int {
	if n < 2 {
		return 0
	}
	return mathbits.Len(uint(n - 1))
}

// bits returns the certificate's encoded size with row indices of width rw.
func (c *CEdgeLabel) bits(rw int) int {
	return bits.UvarintLen(uint64(len(c.Path))) + len(c.Path)*rw + bits.UvarintLen(uint64(c.OwnerPos))
}

// encode writes the certificate, taking its row indices from idx in order,
// and returns the indices it did not use.
func (c *CEdgeLabel) encode(w *bits.Writer, rw int, idx []int) []int {
	w.WriteUvarint(uint64(len(c.Path)))
	for _, r := range idx[:len(c.Path)] {
		w.WriteUint(uint64(r), rw)
	}
	w.WriteUvarint(uint64(c.OwnerPos))
	return idx[len(c.Path):]
}

// Bits returns the exact encoded size of the label (memoized). The size is
// computed by accounting, mirroring encode bit for bit — the entry table
// (its row count and the entries' cached sizes), the own bit, the
// certificates' lengths, row indices and owner positions, the id width and
// every vertex id at that width, the gamma-coded counts and distances — so
// calling it never encodes the label.
func (l *EdgeLabel) Bits() int {
	l.sizeOnce.Do(func() {
		var rowBuf [16]*NodeEntry
		var idxBuf [64]int
		rows, _ := l.table(rowBuf[:0], idxBuf[:0])
		rw := rowWidth(len(rows))
		n := bits.UvarintLen(uint64(len(rows))) + 1
		for _, e := range rows {
			n += e.bits()
		}
		if l.Own != nil {
			n += l.Own.bits(rw)
		}
		width := l.idWidth()
		n += bits.UvarintLen(uint64(width)) + bits.UvarintLen(uint64(len(l.Emb)))
		for _, e := range l.Emb {
			n += 2*width + bits.UvarintLen(uint64(e.Fwd)) + bits.UvarintLen(uint64(e.Bwd)) +
				e.Payload.bits(rw)
		}
		n++
		if p := l.Pointing; p != nil {
			n += 3*width + bits.UvarintLen(uint64(p.DU)) + bits.UvarintLen(uint64(p.DV))
		}
		l.size = n
	})
	return l.size
}

// idWidth returns the bit length of the largest vertex id the label writes
// itself: its embedding entries' endpoints and its pointing label's ids.
func (l *EdgeLabel) idWidth() int {
	var v uint64
	for _, e := range l.Emb {
		v = max(v, e.UID, e.VID)
	}
	if p := l.Pointing; p != nil {
		v = max(v, p.X, p.UID, p.VID)
	}
	return mathbits.Len64(v)
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
	var rowBuf [16]*NodeEntry
	var idxBuf [64]int
	rows, idx := l.table(rowBuf[:0], idxBuf[:0])
	w.WriteUvarint(uint64(len(rows)))
	for _, e := range rows {
		e.encode(w)
	}
	rw := rowWidth(len(rows))
	if l.Own != nil {
		w.WriteBit(true)
		idx = l.Own.encode(w, rw, idx)
	} else {
		w.WriteBit(false)
	}
	width := l.idWidth()
	w.WriteUvarint(uint64(width))
	w.WriteUvarint(uint64(len(l.Emb)))
	for _, e := range l.Emb {
		w.WriteUint(e.UID, width)
		w.WriteUint(e.VID, width)
		w.WriteUvarint(uint64(e.Fwd))
		w.WriteUvarint(uint64(e.Bwd))
		idx = e.Payload.encode(w, rw, idx)
	}
	if p := l.Pointing; p != nil {
		w.WriteBit(true)
		w.WriteUint(p.X, width)
		w.WriteUint(p.UID, width)
		w.WriteUint(p.VID, width)
		w.WriteUvarint(uint64(p.DU))
		w.WriteUvarint(uint64(p.DV))
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
