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
	"fmt"
	mathbits "math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// encCache memoizes an encoding: a node entry's Key or an edge label's wire
// bits. The encoding is held once, as its key — the packed bytes followed
// by the decimal bit count — and read from the key's byte prefix. Entries
// and labels are immutable once handed out by the prover or a Decoder
// (corruption experiments go through Clone, which starts with an empty
// cache), so the encoding is computed at most once; the sync.Once makes
// concurrent verifiers (VerifyParallelCtx, dist) race-free.
type encCache struct {
	once  sync.Once
	key   string
	nbits int
}

// set freezes the encoding written to w and hands w's buffer back to
// encBufs. Callers run it inside once.Do, with the writer on their own
// stack, started on a buffer from encBufs: a writer reached through a
// function value would escape to the heap and pay a write barrier on
// every append, and a buffer of its own would escape with it.
func (c *encCache) set(w *bits.Writer, buf *[]byte) {
	c.nbits = w.Bits()
	b := strconv.AppendInt(w.Buffer(), int64(c.nbits), 10)
	c.key = string(b)
	*buf = b[:0]
	encBufs.Put(buf)
}

// encBufs holds the scratch buffers encodings are written in before they
// are frozen.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// encBuf takes a scratch buffer from encBufs.
func encBuf() *[]byte { return encBufs.Get().(*[]byte) }

// bytes returns the packed bytes of the cached encoding.
func (c *encCache) bytes() string { return c.key[:(c.nbits+7)/8] }

// NodeSummary is what a node entry says about one hierarchy node: the
// node's own basic fields, and the part of a tree child's (Lemma 6.5,
// T-node case), a B-node operand's or a T-node's root member's that the
// entry repeats. The id slices are aligned with the sorted Lanes: InIDs[i],
// OutIDs[i] and MergedOutIDs[i] are the terminals on Lanes[i], exactly as
// the wire carries them. A child or root-member summary carries NodeID,
// Lanes, InIDs and MergedOutIDs; an operand summary NodeID, Kind, Lanes,
// InIDs, OutIDs and, for a V-node, Input. Other fields are ignored there.
type NodeSummary struct {
	NodeID       int
	Kind         lanewidth.Kind
	Lanes        []int
	InIDs        []uint64
	OutIDs       []uint64
	MergedOutIDs []uint64 // tree members only
	Input        int      // V-nodes: the vertex's input label
}

// Shape is the property-independent part of a node entry: everything but
// its class ids. On one StructuralProof a node has one shape, which every
// property pass's entry for the node points at, and one summary, which its
// shape and the shapes of the entries that summarize it point at; entries
// are immutable, and so are shapes and summaries (corruption goes through
// Clone, which copies them).
type Shape struct {
	*NodeSummary // the node's own

	// Tree-member fields (ParentID, the enclosing T-node's id, is -1 for a
	// node outside every T-node's tree; MergedOutIDs and Children are then
	// nil).
	ParentID int
	Children []*NodeSummary

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
	Left, Right  *NodeSummary

	// T-node: summary of its tree's root member.
	RootMember *NodeSummary
}

// NodeEntry is the basic information B(G) of one hierarchy node under one
// property, stored on every edge of the node's subgraph. An edge's
// certificate holds the entries of the ≤ 2k nodes on its root-to-owner path
// (Observation 5.5). An entry is its node's shape plus its class ids.
type NodeEntry struct {
	*Shape
	// Classes holds the entry's class ids in wire order: its own class
	// (Classes[0]); for a tree member its merged class (Classes[1]) and
	// each child's merged class (Classes[2+i]); from opsAt each operand's
	// class; and its root member's merged class, last. Its length is the
	// shape's classCount, which readers check before they index it.
	Classes []int

	cache encCache // Key: the entry as a one-row table
}

// classCount is the number of class ids an entry of this shape carries.
func (s *Shape) classCount() int {
	n := s.opsAt()
	for _, sum := range [3]*NodeSummary{s.Left, s.Right, s.RootMember} {
		if sum != nil {
			n++
		}
	}
	return n
}

// opsAt is where an entry's class vector holds its operands' class ids.
func (s *Shape) opsAt() int {
	if s.member() {
		return 2 + len(s.Children)
	}
	return 1
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
// encoding. Pointers, shapes and node ids are compared first, so shared
// entries, entries of one shape and entries of different nodes never have
// their keys compared. Distinct entries must both be well-formed.
func sameEntry(a, b *NodeEntry) bool {
	return a == b || a.wellFormed() && b.wellFormed() &&
		(a.Shape == b.Shape && slices.Equal(a.Classes, b.Classes) || a.NodeID == b.NodeID && a.Key() == b.Key())
}

// wellFormed reports whether every field of an entry (an in-memory
// forgery, perhaps) can be read: summaries set, class ids as many as due.
func (e *NodeEntry) wellFormed() bool {
	return e != nil && e.Shape != nil && e.NodeSummary != nil &&
		!slices.Contains(e.Children, nil) && len(e.Classes) == e.classCount()
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

// EdgeLabel is the complete label of a real edge. Its entries' bits depend
// on the label carrying them (their ids are indices into the label's
// dictionaries), so the label is encoded as a whole, once, and caches its
// bytes: Bits, AppendLabel, EncodeLabel and Key all read that encoding.
type EdgeLabel struct {
	Own      *CEdgeLabel
	Emb      []EmbEntry
	Pointing *cert.PointingLabel // root-anchor pointing scheme (Prop 2.2)

	cache encCache
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
// A label writes each distinct node entry once: an entry table of its
// entries in first-use order (its own certificate's path, then each
// embedding payload's path), then every certificate as a path length, one
// row index per path entry in exactly rowWidth(rows) bits, and the owner
// position. The certificates of one label share most of their root-side
// entries, so the table is what keeps a label's size near one path.
//
// Ids repeat across the rows of a table (a node's terminals reappear in
// its parent's, children's and operands' summaries, a node id in its
// parent's and children's entries, a class in every entry that names it),
// so the table opens with three dictionaries of the distinct ids its label
// writes, each in first-use order: vertex ids, class ids and node ids. The
// vertex and node dictionaries are each written as their size, the bit
// length of their widest id, then every id in that width; the class
// dictionary as its size, then every class id as a fixed-width content
// hash plus a varint collision rank (writeClassID). Every occurrence — in
// the rows, and the label's own embedding endpoints and pointing ids after
// them — is an index into its dictionary in exactly rowWidth(size) bits.
// The dictionaries come before the rows because the rows' index widths
// depend on their sizes. Requiring every width to be exactly the bit
// length of its widest id and every dictionary row to be first used in its
// own order keeps the encoding canonical.
//
// A row is an entry's fixed fields (writeFixed: everything but its ids),
// then its index block: the indices of its vertex-id, class-id and node-id
// occurrences, in that order. An entry's bits thus depend on the label that
// carries it, so the label is the unit that is encoded and cached
// (EdgeLabel.cache). A node entry's Key is the same writer run over a table
// of that one entry: its own dictionaries, then its row, so it depends on
// the entry alone.
//
// On one StructuralProof, class ids are a label's only property-dependent
// bits: the structure fixes every label's certificate paths (so its table
// rows, one per node, and their node ids), every entry's fixed fields and
// vertex ids, and the label's embedding and pointing fields; a property
// pass contributes only the class ids its entries carry. The label of one
// real edge under any two properties therefore differs only in its class
// dictionary and its rows' class-index blocks. The first property pass to
// encode an edge's label records where those bits sit (labelLayout); every
// later pass over the same structure copies the rest from that encoding
// and writes only its own class bits (labelLayout.splice). The layouts
// live as long as the structure. Labels encoded without a structure — a
// decoded label's canonicality check, a clone, an entry's Key — run the
// full writer alone.

// dictionary replaces every id of occ by its row in a dictionary of the
// distinct ids in first-use order, which it appends to ids and returns.
// Rows are found through slots, an open-addressing index of row+1 values
// (0 marks a free slot; its length is a power of two), started on the
// caller's buffer and replaced by one twice the size when it passes half
// full.
func dictionary(occ, ids []uint64, slots []int32) []uint64 {
	for k, id := range occ {
		if 2*(len(ids)+1) > len(slots) {
			slots = dictSlots(ids, max(64, 2*len(slots)))
		}
		mask := uint64(len(slots) - 1)
		for h := dictHash(id) & mask; ; h = (h + 1) & mask {
			if s := slots[h]; s == 0 {
				ids = append(ids, id)
				slots[h] = int32(len(ids))
				occ[k] = uint64(len(ids) - 1)
				break
			} else if ids[s-1] == id {
				occ[k] = uint64(s - 1)
				break
			}
		}
	}
	return ids
}

// dictSlots returns a fresh open-addressing index of n slots over ids.
func dictSlots(ids []uint64, n int) []int32 {
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for r, id := range ids {
		h := dictHash(id) & mask
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(r + 1)
	}
	return slots
}

// dictHash spreads an id over the slot index (Fibonacci hashing).
func dictHash(id uint64) uint64 { return id * 0x9e3779b97f4a7c15 >> 32 }

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

// member reports whether the node is a member of a T-node's tree. Only
// members' entries write the tree-member fields.
func (s *Shape) member() bool { return s.ParentID != -1 }

// operands returns the B-node operand slots in wire order.
func (s *Shape) operands() [2]*NodeSummary { return [2]*NodeSummary{s.Left, s.Right} }

// appendVertexIDs appends every vertex-id occurrence an entry of this shape
// writes, in wire order.
func (s *Shape) appendVertexIDs(dst []uint64) []uint64 {
	dst = appendLaneIDs(dst, s.Lanes, s.InIDs)
	dst = appendLaneIDs(dst, s.Lanes, s.OutIDs)
	if s.member() {
		dst = appendLaneIDs(dst, s.Lanes, s.MergedOutIDs)
		for _, c := range s.Children {
			dst = appendLaneIDs(dst, c.Lanes, c.InIDs)
			dst = appendLaneIDs(dst, c.Lanes, c.MergedOutIDs)
		}
	}
	dst = append(dst, s.PathIDs...)
	for _, op := range s.operands() {
		if op != nil {
			dst = appendLaneIDs(dst, op.Lanes, op.InIDs)
			dst = appendLaneIDs(dst, op.Lanes, op.OutIDs)
		}
	}
	if rm := s.RootMember; rm != nil {
		dst = appendLaneIDs(dst, rm.Lanes, rm.InIDs)
		dst = appendLaneIDs(dst, rm.Lanes, rm.MergedOutIDs)
	}
	return dst
}

// appendClassIDs appends every class-id occurrence the entry writes, in
// wire order: its class vector.
func (n *NodeEntry) appendClassIDs(dst []uint64) []uint64 {
	for _, c := range n.Classes {
		dst = append(dst, uint64(c))
	}
	return dst
}

// appendNodeIDs appends every node-id occurrence an entry of this shape
// writes, in wire order.
func (s *Shape) appendNodeIDs(dst []uint64) []uint64 {
	dst = append(dst, uint64(s.NodeID))
	if s.member() {
		dst = append(dst, uint64(s.ParentID))
		for _, c := range s.Children {
			dst = append(dst, uint64(c.NodeID))
		}
	}
	for _, op := range s.operands() {
		if op != nil {
			dst = append(dst, uint64(op.NodeID))
		}
	}
	if rm := s.RootMember; rm != nil {
		dst = append(dst, uint64(rm.NodeID))
	}
	return dst
}

// writeIDDict writes a vertex-id or node-id dictionary — its size, the bit
// length of its widest id, then every id in that width — and returns the
// width of an index into it.
func writeIDDict(w *bits.Writer, ids []uint64) int {
	var widest uint64
	for _, id := range ids {
		widest = max(widest, id)
	}
	width := mathbits.Len64(widest)
	w.WriteUvarint(uint64(len(ids)))
	w.WriteUvarint(uint64(width))
	writeUints(w, ids, width)
	return rowWidth(len(ids))
}

// writeTable writes a table's dictionaries and rows and, for a label
// (l non-nil, idx its certificates' row indices), the rest of the label,
// whose own vertex ids join the vertex dictionary after the rows' ids.
// When holes is non-nil it appends the bit spans the class bits took, then
// the encoding's length (labelLayout.holes), and returns it. Occurrences are gathered into stack buffers
// and replaced by their dictionary rows in place, so an honest table
// allocates nothing.
func writeTable(w *bits.Writer, rows []*NodeEntry, l *EdgeLabel, idx []int, holes []int32) []int32 {
	var vBuf [8 * linearRows]uint64
	var cBuf, nBuf, vIDs, nIDs [2 * linearRows]uint64
	var vSlots, nSlots [4 * linearRows]int32
	var endBuf [16][3]int
	occV, occC, occN, ends := vBuf[:0], cBuf[:0], nBuf[:0], endBuf[:0]
	for _, e := range rows {
		occV, occC, occN = e.appendVertexIDs(occV), e.appendClassIDs(occC), e.appendNodeIDs(occN)
		ends = append(ends, [3]int{len(occV), len(occC), len(occN)})
	}
	rowsEnd := len(occV)
	if l != nil {
		occV = l.appendVertexIDs(occV)
	}
	rwV := writeIDDict(w, dictionary(occV, vIDs[:0], vSlots[:]))
	from := w.Bits()
	rwC := writeClassDict(w, occC)
	holes = markHole(holes, from, w.Bits())
	rwN := writeIDDict(w, dictionary(occN, nIDs[:0], nSlots[:]))
	var at [3]int
	for r, e := range rows {
		e.writeFixed(w)
		writeUints(w, occV[at[0]:ends[r][0]], rwV)
		from = w.Bits()
		writeUints(w, occC[at[1]:ends[r][1]], rwC)
		holes = markHole(holes, from, w.Bits())
		writeUints(w, occN[at[2]:ends[r][2]], rwN)
		at = ends[r]
	}
	if l != nil {
		l.encodeTail(w, occV[rowsEnd:], rwV, rowWidth(len(rows)), idx)
	}
	if holes != nil {
		holes = append(holes, int32(w.Bits()))
	}
	return holes
}

// markHole appends the span [from, to) to holes unless holes is nil.
func markHole(holes []int32, from, to int) []int32 {
	if holes == nil {
		return nil
	}
	return append(holes, int32(from), int32(to))
}

// writeClassDict replaces the class-id occurrences occ by their rows in the
// dictionary of their distinct ids in first-use order, writes that
// dictionary — its size, then every id (writeClassID) — and returns the
// width of an index into it. An id of collision rank 0, almost every id,
// is its hash followed by the one-bit varint 0, so runs of them are packed
// into words of up to 56 bits before they reach the writer.
func writeClassDict(w *bits.Writer, occ []uint64) int {
	var ids [2 * linearRows]uint64
	var slots [4 * linearRows]int32
	cd := dictionary(occ, ids[:0], slots[:])
	w.WriteUvarint(uint64(len(cd)))
	const idBits = algebra.ClassHashBits + 1
	var word uint64
	n := 0
	for _, id := range cd {
		if id>>algebra.ClassHashBits != 0 {
			w.WriteUint(word, n)
			word, n = 0, 0
			writeClassID(w, int(id))
			continue
		}
		if n+idBits > 56 {
			w.WriteUint(word, n)
			word, n = 0, 0
		}
		word, n = word<<idBits|id<<1, n+idBits
	}
	w.WriteUint(word, n)
	return rowWidth(len(cd))
}

// labelLayout is the property-independent part of one real edge's label on
// one structure: an encoding of the label under the property that encoded
// it first, the bit spans of that encoding that hold the property's class
// bits, and where each table row is first used. holes[0:2] is the class
// dictionary's span, holes[2+2r:4+2r] row r's class-index block, and the
// last value the encoding's length; everything between the spans — the row
// count, the vertex and node dictionaries, each row's fixed fields and its
// vertex- and node-index blocks, and the tail — is the same under every
// property. rowAt[r] is the position, among the label's certificate path
// entries in wire order, of row r's first use.
type labelLayout struct {
	src   string
	holes []int32
	rowAt []int32
}

// layoutSlot is one real edge's layout, filled by the first property pass
// that encodes the edge's label.
type layoutSlot struct {
	once sync.Once
	lay  labelLayout
}

// splice writes l's encoding from a layout recorded on the same edge of
// the same structure under another property: the layout's bits with l's
// class dictionary and class-index blocks in place of the recorded ones.
// Its rows are the entries at the layout's first-use positions, and each
// row's class occurrences are its entry's.
func (lay *labelLayout) splice(w *bits.Writer, l *EdgeLabel) {
	var rowBuf [16]*NodeEntry
	rows, p := rowBuf[:0], int32(0)
	for i := -1; i < len(l.Emb); i++ {
		c := l.Own
		if i >= 0 {
			c = l.Emb[i].Payload
		} else if c == nil {
			continue
		}
		for _, e := range c.Path {
			if len(rows) < len(lay.rowAt) && lay.rowAt[len(rows)] == p {
				rows = append(rows, e)
			}
			p++
		}
	}
	h := lay.holes
	if len(rows) != len(lay.rowAt) {
		panic(fmt.Sprintf("core: a label with %d rows spliced into a %d-row layout", len(rows), len(lay.rowAt)))
	}
	var cBuf [2 * linearRows]uint64
	var endBuf [16]int
	occC, ends := cBuf[:0], endBuf[:0]
	for _, e := range rows {
		occC = e.appendClassIDs(occC)
		ends = append(ends, len(occC))
	}
	w.WriteChunk(lay.src, 0, int(h[0]))
	rwC := writeClassDict(w, occC)
	from := 0
	for r := range rows {
		w.WriteChunk(lay.src, int(h[2*r+1]), int(h[2*r+2]))
		writeUints(w, occC[from:ends[r]], rwC)
		from = ends[r]
	}
	w.WriteChunk(lay.src, int(h[len(h)-2]), int(h[len(h)-1]))
}

// writeUints writes values, each in exactly width bits. A label writes a
// hundred or so indices and dozens of dictionary ids, so they are packed
// into words of up to 56 bits before they reach the writer.
func writeUints(w *bits.Writer, vals []uint64, width int) {
	if width == 0 {
		return
	}
	var word uint64
	n := 0
	for _, v := range vals {
		if n+width > 56 {
			w.WriteUint(word, n)
			word, n = 0, 0
		}
		word, n = word<<uint(width)|v, n+width
	}
	if n > 0 {
		w.WriteUint(word, n)
	}
}

// writeFixed writes an entry's fields other than its ids, which follow
// them in a table row as indices: its kind and lanes, the tree-member
// flag and its children's lane lists, its path length, real bits and
// inputs, its B-node bridge, and its operands' and root member's kinds,
// lanes and inputs. They are all the shape's.
func (s *Shape) writeFixed(w *bits.Writer) {
	w.WriteUint(uint64(s.Kind), 3)
	writeLanes(w, s.Lanes)
	w.WriteBit(s.member())
	if s.member() {
		w.WriteUvarint(uint64(len(s.Children)))
		for _, c := range s.Children {
			writeLanes(w, c.Lanes)
		}
	}
	w.WriteUvarint(uint64(len(s.PathIDs)))
	for _, b := range s.RealBits {
		w.WriteBit(b)
	}
	for _, in := range s.VInputs {
		w.WriteUvarint(uint64(in))
	}
	w.WriteUvarint(uint64(s.LaneI))
	w.WriteUvarint(uint64(s.LaneJ))
	w.WriteBit(s.BridgeReal)
	for _, op := range s.operands() {
		w.WriteBit(op != nil)
		if op != nil {
			w.WriteUint(uint64(op.Kind), 3)
			writeLanes(w, op.Lanes)
			w.WriteUvarint(uint64(op.Input))
		}
	}
	w.WriteBit(s.RootMember != nil)
	if rm := s.RootMember; rm != nil {
		writeLanes(w, rm.Lanes)
	}
}

// Key returns a canonical encoding of the entry (payload bytes plus the
// exact bit count, so partial final bytes cannot alias), used for the
// per-vertex consistency checks ("all incident edges agree on B(G)") and to
// merge a label's table rows. It depends on the entry alone, never on a
// label carrying it. The encoding is memoized: repeated calls return the
// same string instance, so honest-path comparisons are pointer-equal and
// O(1).
func (n *NodeEntry) Key() string {
	n.cache.once.Do(func() {
		buf := encBuf()
		w := bits.NewWriter(*buf)
		rows := [1]*NodeEntry{n}
		writeTable(&w, rows[:], nil, nil, nil)
		n.cache.set(&w, buf)
	})
	return n.cache.key
}

// linearRows is the table size up to which table finds rows by a linear
// scan; larger tables (long paths under large lane budgets, or
// hostile decoded labels) switch to a map so encoding stays linear. It
// also sizes writeTable's stack buffers.
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

// Bits returns the exact encoded size of the label, encoding it on first
// use (see materialize).
func (l *EdgeLabel) Bits() int {
	l.materialize()
	return l.cache.nbits
}

// materialize encodes the label once and caches its bytes; Bits,
// AppendLabel, EncodeLabel and Key all read that one encoding. The prover
// materializes its labels on its worker pool through its structure's
// layouts (materializeOn); a decoded label is materialized by its
// canonicality check, so it holds the bits it was checked against.
func (l *EdgeLabel) materialize() {
	l.cache.once.Do(func() { l.encode(false) })
}

// materializeOn is materialize for a prover label whose edge's layout is
// slot: the first label of the edge to get here encodes in full and fills
// the slot (counted in builds), and every other one only splices its class
// bits into the slot's layout. A label whose cache is already set (one
// carried over from an earlier generation) touches neither.
func (l *EdgeLabel) materializeOn(slot *layoutSlot, builds *atomic.Int64) {
	l.cache.once.Do(func() {
		filled := false
		slot.once.Do(func() {
			slot.lay = l.encode(true)
			slot.lay.src = l.cache.key
			builds.Add(1)
			filled = true
		})
		if !filled {
			l.spliceFrom(&slot.lay)
		}
	})
}

// encode writes the label in full into its cache and, with record set,
// returns its layout but for src (see encodeRaw). Callers run it under the
// cache's once. The writer lives on this frame: one captured by a closure
// would escape to the heap and pay a write barrier on every append.
func (l *EdgeLabel) encode(record bool) labelLayout {
	buf := encBuf()
	w := bits.NewWriter(*buf)
	lay := l.encodeRaw(&w, record)
	l.cache.set(&w, buf)
	return lay
}

// spliceFrom writes the label into its cache from its edge's layout.
// Callers run it under the cache's once.
func (l *EdgeLabel) spliceFrom(lay *labelLayout) {
	buf := encBuf()
	w := bits.NewWriter(*buf)
	lay.splice(&w, l)
	l.cache.set(&w, buf)
}

// appendVertexIDs appends the vertex ids the label writes itself, in wire
// order: its embedding entries' endpoints and its pointing label's ids.
func (l *EdgeLabel) appendVertexIDs(dst []uint64) []uint64 {
	for _, e := range l.Emb {
		dst = append(dst, e.UID, e.VID)
	}
	if p := l.Pointing; p != nil {
		dst = append(dst, p.X, p.UID, p.VID)
	}
	return dst
}

// Key returns a canonical encoding of the whole edge label (bytes plus bit
// count), so two labels are equal exactly when their keys are. It is the
// label's cached encoding.
func (l *EdgeLabel) Key() string {
	l.materialize()
	return l.cache.key
}

// encodeRaw is the bit-level definition of the label's canonical encoding:
// its row count, then its table (writeTable), which ends with encodeTail.
// With record set it returns the label's layout but for src: the spans of
// its class bits and its rows' first-use positions, in one allocation.
func (l *EdgeLabel) encodeRaw(w *bits.Writer, record bool) labelLayout {
	var rowBuf [16]*NodeEntry
	var idxBuf [64]int
	rows, idx := l.table(rowBuf[:0], idxBuf[:0])
	var lay labelLayout
	if record {
		buf := make([]int32, 3*len(rows)+3)
		lay.holes, lay.rowAt = buf[:0:2*len(rows)+3], buf[2*len(rows)+3:]
		next := 0
		for p, r := range idx {
			if r == next {
				lay.rowAt[next] = int32(p)
				next++
			}
		}
	}
	w.WriteUvarint(uint64(len(rows)))
	lay.holes = writeTable(w, rows, l, idx, lay.holes)
	return lay
}

// encodeTail writes the label after its table's rows: its certificates as
// row indices of width rw taken from idx, and its embedding and pointing
// fields, their vertex ids as the dictionary indices own, each in rwV
// bits.
func (l *EdgeLabel) encodeTail(w *bits.Writer, own []uint64, rwV, rw int, idx []int) {
	if l.Own != nil {
		w.WriteBit(true)
		idx = l.Own.encode(w, rw, idx)
	} else {
		w.WriteBit(false)
	}
	w.WriteUvarint(uint64(len(l.Emb)))
	for _, e := range l.Emb {
		writeUints(w, own[:2], rwV) // UID, VID
		own = own[2:]
		w.WriteUvarint(uint64(e.Fwd))
		w.WriteUvarint(uint64(e.Bwd))
		idx = e.Payload.encode(w, rw, idx)
	}
	if p := l.Pointing; p != nil {
		w.WriteBit(true)
		writeUints(w, own[:3], rwV) // X, UID, VID
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

// idOn returns the id a lane-aligned slice holds for lane l, or 0 when l is
// not one of the lanes.
func idOn(lanes []int, ids []uint64, l int) uint64 {
	if i := slices.Index(lanes, l); i >= 0 && i < len(ids) {
		return ids[i]
	}
	return 0
}
