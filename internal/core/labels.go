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
		// Most entries fit in 64 bytes: one allocation instead of the
		// writer growing a byte at a time from empty.
		w := bits.NewWriter(make([]byte, 0, 64))
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
// and then every node id in exactly that many bits. Vertex ids repeat
// inside an entry (a node's in and out terminals reappear in its children's,
// operands' and root member's summaries), so an entry writes its distinct
// vertex ids once, as a dictionary — their count, then each id in the
// vertex width, in first-use order — and every vertex-id occurrence as an
// index into it in exactly rowWidth(count) bits. The widths and the
// dictionary are per entry, so an entry's encoding stays self-contained (the
// prover and the Decoder share entries by their exact bits), and the
// decoder can require each width to be exactly the bit length of the
// entry's widest id and the dictionary to be used in its own order, which
// keeps the encoding canonical. Edge labels write their own vertex ids in
// one fixed width of their own. Class ids are written as a fixed-width
// content hash plus a varint collision rank (writeClassID).
//
// A label writes each distinct node entry once: an entry table of its
// entries in first-use order (its own certificate's path, then each
// embedding payload's path), then every certificate as a path length, one
// row index per path entry in exactly rowWidth(rows) bits, and the owner
// position. The certificates of one label share most of their root-side
// entries, so the table is what keeps a label's size near one path.

// vertexCodes is how a node entry writes its vertex ids: its dictionary
// (the distinct ids in first-use order) and, in wire order, every
// occurrence's index into the dictionary, which write emits in turn in
// exactly rw bits.
type vertexCodes struct {
	dict []uint64
	idx  []uint64
	next int
	rw   int
}

// width returns the bit length of the dictionary's widest id: the width
// the entry writes its dictionary in.
func (c *vertexCodes) width() int {
	var widest uint64
	for _, id := range c.dict {
		widest = max(widest, id)
	}
	return mathbits.Len64(widest)
}

// write emits the indices of the next count occurrences.
func (c *vertexCodes) write(w *bits.Writer, count int) {
	for _, i := range c.idx[c.next : c.next+count] {
		w.WriteUint(i, c.rw)
	}
	c.next += count
}

// appendLaneIDs appends one id per lane from a lane-aligned slice. The
// wire always carries exactly one id per lane; a missing id is the vertex
// id zero.
func appendLaneIDs(dst []uint64, lanes []int, ids []uint64) []uint64 {
	for i := range lanes {
		var id uint64
		if i < len(ids) {
			id = ids[i]
		}
		dst = append(dst, id)
	}
	return dst
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

func (c *ChildSummary) encode(w *bits.Writer, nodeWidth int, codes *vertexCodes) {
	w.WriteUint(uint64(c.NodeID), nodeWidth)
	writeLanes(w, c.Lanes)
	codes.write(w, 2*len(c.Lanes)) // InIDs, MergedOutIDs
	writeClassID(w, c.MergedClassID)
}

func (o *OperandSummary) encode(w *bits.Writer, nodeWidth int, codes *vertexCodes) {
	w.WriteUint(uint64(o.NodeID), nodeWidth)
	w.WriteUint(uint64(o.Kind), 3)
	writeLanes(w, o.Lanes)
	codes.write(w, 2*len(o.Lanes)) // InIDs, OutIDs
	writeClassID(w, o.ClassID)
	w.WriteUvarint(uint64(o.Input))
}

// member reports whether the entry is a member of a T-node's tree. Only
// members write the tree-member fields.
func (n *NodeEntry) member() bool { return n.ParentID != -1 }

// operands returns the entry's B-node operand slots in wire order.
func (n *NodeEntry) operands() [2]*OperandSummary { return [2]*OperandSummary{n.Left, n.Right} }

// appendVertexIDs appends every vertex-id occurrence the entry writes, in
// wire order.
func (n *NodeEntry) appendVertexIDs(dst []uint64) []uint64 {
	dst = appendLaneIDs(dst, n.Lanes, n.InIDs)
	dst = appendLaneIDs(dst, n.Lanes, n.OutIDs)
	if n.member() {
		dst = appendLaneIDs(dst, n.Lanes, n.MergedOutIDs)
		for i := range n.Children {
			dst = appendLaneIDs(dst, n.Children[i].Lanes, n.Children[i].InIDs)
			dst = appendLaneIDs(dst, n.Children[i].Lanes, n.Children[i].MergedOutIDs)
		}
	}
	dst = append(dst, n.PathIDs...)
	for _, op := range n.operands() {
		if op != nil {
			dst = appendLaneIDs(dst, op.Lanes, op.InIDs)
			dst = appendLaneIDs(dst, op.Lanes, op.OutIDs)
		}
	}
	if rm := n.RootMember; rm != nil {
		dst = appendLaneIDs(dst, rm.Lanes, rm.InIDs)
		dst = appendLaneIDs(dst, rm.Lanes, rm.MergedOutIDs)
	}
	return dst
}

// nodeWidth returns the bit length of the largest node id the entry writes.
func (n *NodeEntry) nodeWidth() int {
	node := uint64(n.NodeID)
	if n.member() {
		node = max(node, uint64(n.ParentID))
		for i := range n.Children {
			node = max(node, uint64(n.Children[i].NodeID))
		}
	}
	for _, op := range n.operands() {
		if op != nil {
			node = max(node, uint64(op.NodeID))
		}
	}
	if n.RootMember != nil {
		node = max(node, uint64(n.RootMember.NodeID))
	}
	return mathbits.Len64(node)
}

// vertexCodes returns the entry's vertex codes, built in the given
// buffers. Ids are found by a linear scan of the dictionary up to
// linearRows of them; larger dictionaries (hostile decoded entries) switch
// to a map so encoding stays linear.
func (n *NodeEntry) vertexCodes(dict, idx []uint64) vertexCodes {
	idx, dict = n.appendVertexIDs(idx[:0]), dict[:0]
	var index map[uint64]int
	for k, id := range idx {
		i, ok := 0, false
		if index == nil {
			i = slices.Index(dict, id)
			ok = i >= 0
		} else {
			i, ok = index[id]
		}
		if !ok {
			i = len(dict)
			dict = append(dict, id)
			switch {
			case index != nil:
				index[id] = i
			case len(dict) > linearRows:
				index = make(map[uint64]int, 2*len(dict))
				for j, v := range dict {
					index[v] = j
				}
			}
		}
		idx[k] = uint64(i)
	}
	return vertexCodes{dict: dict, idx: idx, rw: rowWidth(len(dict))}
}

// encode appends the entry's canonical encoding, memoized on first use.
func (n *NodeEntry) encode(w *bits.Writer) {
	n.cache.materialize(n.encodeRaw)
	n.cache.splice(w)
}

// encodeRaw is the bit-level definition of the entry's canonical encoding;
// callers go through encode/Key, which cache its output.
func (n *NodeEntry) encodeRaw(w *bits.Writer) {
	var dictBuf [linearRows]uint64
	var idxBuf [4 * linearRows]uint64
	codes := n.vertexCodes(dictBuf[:], idxBuf[:])
	vw, nw := codes.width(), n.nodeWidth()
	w.WriteUvarint(uint64(vw))
	w.WriteUvarint(uint64(nw))
	w.WriteUvarint(uint64(len(codes.dict)))
	for _, id := range codes.dict {
		w.WriteUint(id, vw)
	}
	w.WriteUint(uint64(n.NodeID), nw)
	w.WriteUint(uint64(n.Kind), 3)
	writeLanes(w, n.Lanes)
	codes.write(w, 2*len(n.Lanes)) // InIDs, OutIDs
	writeClassID(w, n.ClassID)
	w.WriteBit(n.member())
	if n.member() {
		w.WriteUint(uint64(n.ParentID), nw)
		writeClassID(w, n.MergedClassID)
		codes.write(w, len(n.Lanes)) // MergedOutIDs
		w.WriteUvarint(uint64(len(n.Children)))
		for i := range n.Children {
			n.Children[i].encode(w, nw, &codes)
		}
	}
	w.WriteUvarint(uint64(len(n.PathIDs)))
	codes.write(w, len(n.PathIDs))
	for _, b := range n.RealBits {
		w.WriteBit(b)
	}
	for _, in := range n.VInputs {
		w.WriteUvarint(uint64(in))
	}
	w.WriteUvarint(uint64(n.LaneI))
	w.WriteUvarint(uint64(n.LaneJ))
	w.WriteBit(n.BridgeReal)
	for _, op := range n.operands() {
		if op == nil {
			w.WriteBit(false)
			continue
		}
		w.WriteBit(true)
		op.encode(w, nw, &codes)
	}
	if n.RootMember == nil {
		w.WriteBit(false)
	} else {
		w.WriteBit(true)
		n.RootMember.encode(w, nw, &codes)
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
