package core

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/lanewidth"
)

// EncodeLabel serializes an edge label to its exact bit representation —
// the artifact that would cross the wire in the PLS model — in a buffer of
// exactly its size.
func EncodeLabel(l *EdgeLabel) ([]byte, int) {
	return AppendLabel(make([]byte, 0, (l.Bits()+7)/8), l)
}

// AppendLabel appends the label's EncodeLabel bytes to dst, starting at a
// byte boundary, and returns the extended buffer and the label's bit count.
// The cached encodings of its node entries are spliced in; the
// label's own bits are written straight into dst, so encoding a labeling
// into one buffer makes no per-label copy.
func AppendLabel(dst []byte, l *EdgeLabel) ([]byte, int) {
	start := len(dst)
	w := bits.NewWriter(dst)
	w.Grow(l.Bits())
	l.encode(&w)
	return w.Buffer(), w.Bits() - 8*start
}

// DecodeLabel parses a label previously produced by EncodeLabel, with a
// one-shot Decoder. Together they witness that the bit counts reported by
// experiments correspond to a real, self-delimiting encoding (round-trip
// tested in decode_test.go).
func DecodeLabel(data []byte, nbits int) (*EdgeLabel, error) {
	var d Decoder
	return d.DecodeLabel(data, nbits)
}

// Decoder decodes labels and interns their repeated components. An edge's
// certificate holds the entries of every node on its root-to-owner path
// (Observation 5.5), and a completion edge's certificate rides on every real
// edge of its embedding path, so the labels of one labeling repeat the same
// node entries and certificates many times. A Decoder builds each distinct
// NodeEntry and CEdgeLabel once and hands every later copy the same pointer,
// exactly as the prover shares them; the memoized encodings and keys of an
// entry are then computed once per distinct entry.
//
// Entries are keyed by their exact bit string, not by their canonical Key.
// The parse is deterministic, so equal bits decode to equal values and
// sharing is sound even for non-canonical input: a Decoder accepts and
// rejects exactly the streams DecodeLabel does, whatever it decoded before.
// A certificate's bits are row indices into its label's entry table, so
// certificates are keyed by the interned identities of their entries plus
// their owner position instead. Canonicality remains the caller's check
// (re-encode the label and compare); a label whose table repeats an entry
// decodes, its two rows interned to one pointer, and fails that check.
// Labels from one Decoder share structure, so they are read-only: corrupt a
// copy (Clone), never the original.
//
// The zero value is ready to use. A Decoder is not safe for concurrent use.
type Decoder struct {
	entries map[string]entryRef
	certs   map[string]*CEdgeLabel

	key  []byte       // interning key under construction
	path []*NodeEntry // path of the certificate being parsed
	ids  u64Arena     // backing store of built entries' id slices

	// Entry table of the label being parsed: its rows, their index width,
	// and the number of rows its certificates have used so far.
	rows     []entryRef
	rowWidth int
	used     int

	// Id widths of the entry being parsed, and its widest ids so far.
	wd               idWidths
	widestV, widestN uint64

	// Vertex-id dictionary of the entry being parsed, the width of an
	// index into it, and the number of its rows used so far.
	dict     []uint64
	dictRW   int
	dictUsed int

	// Write-only targets of the skip pass.
	lanes  []int
	skip   NodeEntry
	skipOp OperandSummary
}

// idWidths is the pair of fixed widths a node entry writes its vertex-id
// dictionary and its node ids in.
type idWidths struct{ vertex, node int }

// entryRef is an interned entry and its ordinal in the Decoder, which
// certificate keys are built from.
type entryRef struct {
	e  *NodeEntry
	id uint64
}

// minEntryBits is the fewest bits a node entry can take. It bounds the row
// count a label may declare by the bits that remain.
const minEntryBits = 2 + // vertex and node id widths of 0
	1 + // empty vertex-id dictionary
	3 + // kind
	1 + // empty lane list
	algebra.ClassHashBits + 1 + // class id of rank 0
	1 + // member bit
	1 + // empty path-id list
	2 + // LaneI and LaneJ of 0
	1 + // BridgeReal
	3 // operand and root-member presence bits

// Grow sizes the Decoder's intern tables for the labels of the given
// number of edges, so that decoding them does not rehash the tables as
// they fill: an honest labeling carries about three distinct node entries
// and two distinct certificates per edge. Every entry takes at least
// minEntryBits of the input, so the hint is capped by the bits the input
// has left, and a header that declares more edges than the input carries
// cannot make the Decoder reserve more than the input could fill. Grow
// must come before the first DecodeLabel; later calls do nothing.
func (d *Decoder) Grow(edges, bits int) {
	if d.entries != nil {
		return
	}
	most := bits / minEntryBits
	d.entries = make(map[string]entryRef, min(3*edges, most))
	d.certs = make(map[string]*CEdgeLabel, min(2*edges, most))
}

// DecodeLabel parses one label, sharing every node entry whose exact bits
// and every certificate whose entries this Decoder has decoded before.
func (d *Decoder) DecodeLabel(data []byte, nbits int) (*EdgeLabel, error) {
	d.Grow(0, 0)
	return d.decodeEdgeLabel(bits.NewReader(data, nbits))
}

func (d *Decoder) decodeEdgeLabel(r *bits.Reader) (*EdgeLabel, error) {
	if err := d.table(r); err != nil {
		return nil, err
	}
	out := &EdgeLabel{}
	hasOwn, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasOwn {
		own, err := d.cedge(r)
		if err != nil {
			return nil, err
		}
		out.Own = own
	}
	width, err := readWidth(r)
	if err != nil {
		return nil, err
	}
	var widest uint64
	id := func() (uint64, error) {
		v, err := r.ReadUint(width)
		widest = max(widest, v)
		return v, err
	}
	nEmb, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nEmb > 1<<20 {
		return nil, fmt.Errorf("core: implausible embedding count %d", nEmb)
	}
	for i := uint64(0); i < nEmb; i++ {
		var e EmbEntry
		if e.UID, err = id(); err != nil {
			return nil, err
		}
		if e.VID, err = id(); err != nil {
			return nil, err
		}
		fwd, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		bwd, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		e.Fwd, e.Bwd = int(fwd), int(bwd)
		if e.Payload, err = d.cedge(r); err != nil {
			return nil, err
		}
		out.Emb = append(out.Emb, e)
	}
	if d.used != len(d.rows) {
		return nil, fmt.Errorf("core: entry table row %d of %d is used by no certificate", d.used, len(d.rows))
	}
	hasPointing, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasPointing {
		var p cert.PointingLabel
		if p.X, err = id(); err != nil {
			return nil, err
		}
		if p.UID, err = id(); err != nil {
			return nil, err
		}
		if p.VID, err = id(); err != nil {
			return nil, err
		}
		du, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		dv, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		p.DU, p.DV = int(du), int(dv)
		out.Pointing = &p
	}
	if err := checkWidth("label vertex", width, widest); err != nil {
		return nil, err
	}
	return out, nil
}

// table parses the label's entry table into d.rows. The declared row count
// is checked against the bits that remain before any row is read.
func (d *Decoder) table(r *bits.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.Remaining()/minEntryBits) {
		return fmt.Errorf("core: entry table of %d rows in %d remaining bits", n, r.Remaining())
	}
	d.rows, d.rowWidth, d.used = d.rows[:0], rowWidth(int(n)), 0
	for i := uint64(0); i < n; i++ {
		ref, err := d.entry(r)
		if err != nil {
			return err
		}
		d.rows = append(d.rows, ref)
	}
	return nil
}

// cedge parses one completion-edge certificate: its path as row indices
// into the label's entry table, then its owner position. Rows must be
// first used in table order, so the certificates determine the table's
// order. A certificate whose entries and owner position were seen before
// allocates nothing.
func (d *Decoder) cedge(r *bits.Reader) (*CEdgeLabel, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// A root-to-owner path never repeats a node, so it is no longer than
	// the table.
	if n > uint64(len(d.rows)) {
		return nil, fmt.Errorf("core: path length %d exceeds the %d-row entry table", n, len(d.rows))
	}
	d.key = binary.AppendUvarint(d.key[:0], n)
	d.path = d.path[:0]
	for i := uint64(0); i < n; i++ {
		row, err := r.ReadUint(d.rowWidth)
		if err != nil {
			return nil, err
		}
		if row >= uint64(len(d.rows)) {
			return nil, fmt.Errorf("core: row index %d in a %d-row entry table", row, len(d.rows))
		}
		if row > uint64(d.used) {
			return nil, fmt.Errorf("core: entry table row %d used before row %d", row, d.used)
		}
		if row == uint64(d.used) {
			d.used++
		}
		ref := d.rows[row]
		d.path = append(d.path, ref.e)
		d.key = binary.AppendUvarint(d.key, ref.id)
	}
	pos, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	d.key = binary.AppendUvarint(d.key, pos)
	if c, ok := d.certs[string(d.key)]; ok {
		return c, nil
	}
	c := &CEdgeLabel{Path: append([]*NodeEntry(nil), d.path...), OwnerPos: int(pos)}
	d.certs[string(d.key)] = c
	return c, nil
}

// setKey loads d.key with the raw bits [from, r.Pos()): their count, then
// the bits packed from a byte boundary. The count comes first, so distinct
// bit strings never share a key.
func (d *Decoder) setKey(r *bits.Reader, from int) {
	d.key = binary.AppendUvarint(d.key[:0], uint64(r.Pos()-from))
	d.key = r.AppendBits(d.key, from, r.Pos())
}

// entry parses one node entry: a skip pass finds its extent, and the entry
// is built only when its bits are new to this Decoder.
func (d *Decoder) entry(r *bits.Reader) (entryRef, error) {
	start := r.Pos()
	if _, err := d.parseEntry(r, false); err != nil {
		return entryRef{}, err
	}
	d.setKey(r, start)
	if ref, ok := d.entries[string(d.key)]; ok {
		return ref, nil
	}
	end := r.Pos()
	r.Seek(start)
	e, err := d.parseEntry(r, true)
	if err != nil {
		return entryRef{}, err
	}
	if r.Pos() != end {
		return entryRef{}, fmt.Errorf("core: entry build pass read %d bits, skip pass %d", r.Pos()-start, end-start)
	}
	ref := entryRef{e: e, id: uint64(len(d.entries))}
	d.entries[string(d.key)] = ref
	return ref, nil
}

// parseEntry is the one grammar of a node entry. With build set it returns
// the decoded entry. Without, it is the skip pass: it reads the same bits
// and runs the same plausibility checks, but allocates nothing — scalars
// land in d.skip and d.skipOp, lane lists in d.lanes, and id and payload
// slices are not made — and returns nil.
func (d *Decoder) parseEntry(r *bits.Reader, build bool) (*NodeEntry, error) {
	e := &d.skip
	if build {
		e = &NodeEntry{}
	}
	var err error
	if d.wd.vertex, err = readWidth(r); err != nil {
		return nil, err
	}
	if d.wd.node, err = readWidth(r); err != nil {
		return nil, err
	}
	d.widestV, d.widestN = 0, 0
	if err := d.parseDict(r); err != nil {
		return nil, err
	}
	id, err := d.nodeID(r)
	if err != nil {
		return nil, err
	}
	e.NodeID = int(id)
	kind, err := r.ReadUint(3)
	if err != nil {
		return nil, err
	}
	e.Kind = lanewidth.Kind(kind)
	if e.Lanes, err = d.parseLanes(r, build); err != nil {
		return nil, err
	}
	if e.InIDs, err = d.parseIDs(r, len(e.Lanes), build); err != nil {
		return nil, err
	}
	if e.OutIDs, err = d.parseIDs(r, len(e.Lanes), build); err != nil {
		return nil, err
	}
	if e.ClassID, err = readClassID(r); err != nil {
		return nil, err
	}
	member, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	// Non-members write no tree-member fields.
	e.ParentID, e.MergedClassID, e.MergedOutIDs = -1, 0, nil
	if member {
		parent, err := d.nodeID(r)
		if err != nil {
			return nil, err
		}
		e.ParentID = int(parent)
		if e.MergedClassID, err = readClassID(r); err != nil {
			return nil, err
		}
		if e.MergedOutIDs, err = d.parseIDs(r, len(e.Lanes), build); err != nil {
			return nil, err
		}
		nChildren, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if nChildren > 1<<12 {
			return nil, fmt.Errorf("core: implausible child count %d", nChildren)
		}
		for i := uint64(0); i < nChildren; i++ {
			c, err := d.parseChild(r, build)
			if err != nil {
				return nil, err
			}
			if build {
				e.Children = append(e.Children, c)
			}
		}
	}
	nPath, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nPath > 1<<12 {
		return nil, fmt.Errorf("core: implausible path-id count %d", nPath)
	}
	for i := uint64(0); i < nPath; i++ {
		v, err := d.vertexID(r)
		if err != nil {
			return nil, err
		}
		if build {
			e.PathIDs = append(e.PathIDs, v)
		}
	}
	// RealBits and VInputs lengths are kind-determined: one real bit per
	// consecutive path pair, one input per path vertex.
	for i := uint64(1); i < nPath; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if build {
			e.RealBits = append(e.RealBits, b)
		}
	}
	for i := uint64(0); i < nPath; i++ {
		in, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if build {
			e.VInputs = append(e.VInputs, int(in))
		}
	}
	li, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	lj, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	e.LaneI, e.LaneJ = int(li), int(lj)
	if e.BridgeReal, err = r.ReadBit(); err != nil {
		return nil, err
	}
	for _, dst := range []**OperandSummary{&e.Left, &e.Right} {
		has, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if !has {
			continue
		}
		if *dst, err = d.parseOperand(r, build); err != nil {
			return nil, err
		}
	}
	hasRM, err := r.ReadBit()
	if err != nil {
		return nil, err
	}
	if hasRM {
		rm, err := d.parseChild(r, build)
		if err != nil {
			return nil, err
		}
		if build {
			e.RootMember = new(ChildSummary)
			*e.RootMember = rm
		}
	}
	if d.dictUsed != len(d.dict) {
		return nil, fmt.Errorf("core: vertex dictionary row %d of %d is used by no id", d.dictUsed, len(d.dict))
	}
	if err := checkWidth("entry vertex", d.wd.vertex, d.widestV); err != nil {
		return nil, err
	}
	if err := checkWidth("entry node", d.wd.node, d.widestN); err != nil {
		return nil, err
	}
	if !build {
		return nil, nil
	}
	return e, nil
}

// readWidth reads an id width: a varint of at most 64.
func readWidth(r *bits.Reader) (int, error) {
	w, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if w > 64 {
		return 0, fmt.Errorf("core: id width %d exceeds 64 bits", w)
	}
	return int(w), nil
}

// checkWidth enforces the canonical width: exactly the bit length of the
// widest id written in it. A wider width would give the same ids a second
// encoding.
func checkWidth(what string, width int, widest uint64) error {
	if width != mathbits.Len64(widest) {
		return fmt.Errorf("core: %s id width %d, widest id %d needs %d", what, width, widest, mathbits.Len64(widest))
	}
	return nil
}

// readClassID reads a class id: the content hash in algebra.ClassHashBits
// bits, then the collision rank as a varint, at most algebra.MaxClassRank.
func readClassID(r *bits.Reader) (int, error) {
	hash, err := r.ReadUint(algebra.ClassHashBits)
	if err != nil {
		return 0, err
	}
	rank, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if rank > algebra.MaxClassRank {
		return 0, fmt.Errorf("core: class collision rank %d exceeds %d", rank, algebra.MaxClassRank)
	}
	return int(rank<<algebra.ClassHashBits | hash), nil
}

// parseDict reads the vertex-id dictionary of the entry being parsed into
// the reused d.dict: its size, bounded by the bits that remain at the
// entry's vertex width and by the ids that width can hold before the
// buffer grows, then each id in that width.
func (d *Decoder) parseDict(r *bits.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	width := d.wd.vertex
	if n > uint64(r.Remaining()/max(1, width)) || width < 64 && n > 1<<width {
		return fmt.Errorf("core: vertex dictionary of %d ids at width %d in %d remaining bits", n, width, r.Remaining())
	}
	d.dict, d.dictRW, d.dictUsed = d.dict[:0], rowWidth(int(n)), 0
	for i := uint64(0); i < n; i++ {
		v, err := r.ReadUint(width)
		if err != nil {
			return err
		}
		d.widestV = max(d.widestV, v)
		d.dict = append(d.dict, v)
	}
	return nil
}

// vertexID reads one vertex-id occurrence of the entry being parsed: an
// index into its dictionary, in exactly the dictionary's index width.
// Rows must be first used in dictionary order, so the occurrences
// determine the dictionary's order.
func (d *Decoder) vertexID(r *bits.Reader) (uint64, error) {
	i, err := r.ReadUint(d.dictRW)
	if err != nil {
		return 0, err
	}
	if i >= uint64(len(d.dict)) {
		return 0, fmt.Errorf("core: vertex index %d in a %d-id dictionary", i, len(d.dict))
	}
	if i > uint64(d.dictUsed) {
		return 0, fmt.Errorf("core: vertex dictionary row %d used before row %d", i, d.dictUsed)
	}
	if i == uint64(d.dictUsed) {
		d.dictUsed++
	}
	return d.dict[i], nil
}

// nodeID reads one node id of the entry being parsed, in the entry's node
// id width, and tracks the widest node id read.
func (d *Decoder) nodeID(r *bits.Reader) (uint64, error) {
	v, err := r.ReadUint(d.wd.node)
	d.widestN = max(d.widestN, v)
	return v, err
}

// parseLanes reads a lane list: a fresh slice when building, the reused
// d.lanes on the skip pass (which needs only its length). Lanes must be
// strictly increasing, as every encoder writes them: the id lists that
// follow are aligned with the lanes by position, so a repeated lane would
// carry two ids for one lane.
func (d *Decoder) parseLanes(r *bits.Reader, build bool) ([]int, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("core: implausible lane count %d", n)
	}
	lanes := d.lanes[:0]
	if build {
		lanes = make([]int, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		l, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 && l <= uint64(lanes[i-1]) {
			return nil, fmt.Errorf("core: lane %d follows lane %d", l, lanes[i-1])
		}
		lanes = append(lanes, int(l))
	}
	if !build {
		d.lanes = lanes
	}
	return lanes, nil
}

// parseIDs reads one vertex id per lane into a lane-aligned slice, carved
// from the Decoder's arena only when building.
func (d *Decoder) parseIDs(r *bits.Reader, n int, build bool) ([]uint64, error) {
	var out []uint64
	if build {
		out = d.ids.alloc(n)
	}
	for i := range n {
		v, err := d.vertexID(r)
		if err != nil {
			return nil, err
		}
		if build {
			out[i] = v
		}
	}
	return out, nil
}

func (d *Decoder) parseChild(r *bits.Reader, build bool) (ChildSummary, error) {
	var c ChildSummary
	id, err := d.nodeID(r)
	if err != nil {
		return c, err
	}
	c.NodeID = int(id)
	if c.Lanes, err = d.parseLanes(r, build); err != nil {
		return c, err
	}
	if c.InIDs, err = d.parseIDs(r, len(c.Lanes), build); err != nil {
		return c, err
	}
	if c.MergedOutIDs, err = d.parseIDs(r, len(c.Lanes), build); err != nil {
		return c, err
	}
	c.MergedClassID, err = readClassID(r)
	return c, err
}

// parseOperand reads a B-node operand summary; nil on the skip pass.
func (d *Decoder) parseOperand(r *bits.Reader, build bool) (*OperandSummary, error) {
	o := &d.skipOp
	if build {
		o = &OperandSummary{}
	}
	id, err := d.nodeID(r)
	if err != nil {
		return nil, err
	}
	o.NodeID = int(id)
	kind, err := r.ReadUint(3)
	if err != nil {
		return nil, err
	}
	o.Kind = lanewidth.Kind(kind)
	if o.Lanes, err = d.parseLanes(r, build); err != nil {
		return nil, err
	}
	if o.InIDs, err = d.parseIDs(r, len(o.Lanes), build); err != nil {
		return nil, err
	}
	if o.OutIDs, err = d.parseIDs(r, len(o.Lanes), build); err != nil {
		return nil, err
	}
	if o.ClassID, err = readClassID(r); err != nil {
		return nil, err
	}
	input, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	o.Input = int(input)
	if !build {
		return nil, nil
	}
	return o, nil
}
