package core

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"slices"

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
// The label is encoded once (on first use) and its cached bytes are copied
// in.
func AppendLabel(dst []byte, l *EdgeLabel) ([]byte, int) {
	l.materialize()
	return append(dst, l.cache.bytes()...), l.cache.nbits
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
// node entries and certificates many times, and the labelings of several
// properties over one structure repeat the same entry shapes. A Decoder
// builds each distinct Shape, NodeEntry and CEdgeLabel once and hands every
// later copy the same pointer, exactly as the prover shares them; the
// memoized encodings and keys of an entry are then computed once per
// distinct entry.
//
// An entry's ids are indices into its label's dictionaries, so the same
// entry has different bits in different labels. A shape is keyed by its
// entry's raw fixed bits with every vertex and node index replaced by the
// dictionary value it selects, and an entry by its shape's ordinal plus the
// class ids its class indices select — not by their canonical Key. The
// parse is deterministic, so equal keys decode to equal values and sharing
// is sound even for non-canonical input: a Decoder accepts and rejects
// exactly the streams DecodeLabel does, whatever it decoded before.
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
	shapes  map[string]shapeRef
	entries map[string]entryRef
	certs   map[string]*CEdgeLabel

	key     []byte        // interning key under construction
	path    []*NodeEntry  // path of the certificate being parsed
	ids     arena[uint64] // backing store of built shapes' id slices
	classes arena[int]    // backing store of built entries' class vectors

	// Entry table of the label being parsed: its rows, their index width,
	// and the number of rows its certificates have used so far.
	rows     []entryRef
	rowWidth int
	used     int

	// Dictionaries of the label being parsed: its vertex ids, class ids
	// (as uint64) and node ids, the width of an index into each, and the
	// number of each one's rows used so far.
	vdict, cdict, ndict []uint64
	vRW, cRW, nRW       int
	vUsed, cUsed, nUsed int

	// keying is set while the skip pass builds a shape's interning key in
	// key and gathers its entry's class ids in cvals.
	keying bool
	cvals  []uint64

	// Ids of the shape being built, in index-block order.
	vals []uint64

	// Write-only targets of the skip pass.
	lanes   []int
	skip    Shape
	skipOwn NodeSummary
	skipSum NodeSummary
}

// shapeRef is an interned shape and its ordinal in the Decoder, which entry
// keys are built from.
type shapeRef struct {
	s  *Shape
	id uint64
}

// entryRef is an interned entry and its ordinal in the Decoder, which
// certificate keys are built from.
type entryRef struct {
	e  *NodeEntry
	id uint64
}

// minEntryBits is the fewest bits a node entry can take. It bounds the row
// count a label may declare by the bits that remain.
const minEntryBits = 0 + // node index into a one-node dictionary
	3 + // kind
	1 + // empty lane list
	0 + // class index into a one-class dictionary
	1 + // member bit
	1 + // empty path-id list
	2 + // LaneI and LaneJ of 0
	1 + // BridgeReal
	3 // operand and root-member presence bits

// Grow sizes the Decoder's intern tables for the labels of edges edges
// under props properties, so that decoding them does not rehash the tables:
// an honest labeling carries about three distinct entries and two distinct
// certificates per edge, and one structure's labelings share their entries'
// shapes. Every entry takes at least minEntryBits of the input, so the hint
// is capped by the bits the input has left, and a header that declares more
// edges than the input carries cannot make the Decoder reserve more than the
// input could fill. Grow must come before the first DecodeLabel; later calls
// do nothing.
func (d *Decoder) Grow(edges, props, bits int) {
	if d.entries != nil {
		return
	}
	most := bits / minEntryBits
	d.shapes = make(map[string]shapeRef, min(3*edges, most))
	d.entries = make(map[string]entryRef, min(3*edges*props, most))
	d.certs = make(map[string]*CEdgeLabel, min(2*edges*props, most))
}

// DecodeLabel parses one label, sharing every node entry whose exact bits
// and every certificate whose entries this Decoder has decoded before.
func (d *Decoder) DecodeLabel(data []byte, nbits int) (*EdgeLabel, error) {
	d.Grow(0, 0, 0)
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
	nEmb, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nEmb > 1<<20 {
		return nil, fmt.Errorf("core: implausible embedding count %d", nEmb)
	}
	for i := uint64(0); i < nEmb; i++ {
		var e EmbEntry
		if e.UID, err = d.vertexID(r); err != nil {
			return nil, err
		}
		if e.VID, err = d.vertexID(r); err != nil {
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
		if p.X, err = d.vertexID(r); err != nil {
			return nil, err
		}
		if p.UID, err = d.vertexID(r); err != nil {
			return nil, err
		}
		if p.VID, err = d.vertexID(r); err != nil {
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
	for _, dict := range []struct {
		what       string
		used, size int
	}{{"vertex", d.vUsed, len(d.vdict)}, {"class", d.cUsed, len(d.cdict)}, {"node", d.nUsed, len(d.ndict)}} {
		if dict.used != dict.size {
			return nil, fmt.Errorf("core: %s dictionary row %d of %d is used by no id", dict.what, dict.used, dict.size)
		}
	}
	return out, nil
}

// table parses the label's entry table: its row count, checked against the
// bits that remain before any row is read, its dictionaries, and its rows
// into d.rows.
func (d *Decoder) table(r *bits.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.Remaining()/minEntryBits) {
		return fmt.Errorf("core: entry table of %d rows in %d remaining bits", n, r.Remaining())
	}
	if err := d.dictionaries(r); err != nil {
		return err
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

// dictionaries reads the label's vertex-id, class-id and node-id
// dictionaries into the reused d.vdict, d.cdict and d.ndict.
func (d *Decoder) dictionaries(r *bits.Reader) error {
	var err error
	if d.vdict, err = readIDDict(r, "vertex", d.vdict[:0]); err != nil {
		return err
	}
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.Remaining()/(algebra.ClassHashBits+1)) {
		return fmt.Errorf("core: class dictionary of %d ids in %d remaining bits", n, r.Remaining())
	}
	d.cdict = d.cdict[:0]
	for i := uint64(0); i < n; i++ {
		c, err := readClassID(r)
		if err != nil {
			return err
		}
		d.cdict = append(d.cdict, uint64(c))
	}
	if d.ndict, err = readIDDict(r, "node", d.ndict[:0]); err != nil {
		return err
	}
	d.vRW, d.vUsed = rowWidth(len(d.vdict)), 0
	d.cRW, d.cUsed = rowWidth(len(d.cdict)), 0
	d.nRW, d.nUsed = rowWidth(len(d.ndict)), 0
	return nil
}

// readIDDict appends a vertex-id or node-id dictionary to dst: its size,
// bounded by the bits that remain at its width (and by the 2^width
// distinct ids the width holds) before dst grows, its width, which must be
// exactly the widest id's bit length, and its ids.
func readIDDict(r *bits.Reader, what string, dst []uint64) ([]uint64, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	width, err := readWidth(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()/max(1, width)) || width < 64 && n > 1<<width {
		return nil, fmt.Errorf("core: %s dictionary of %d ids at width %d in %d remaining bits", what, n, width, r.Remaining())
	}
	var widest uint64
	for i := uint64(0); i < n; i++ {
		v, err := r.ReadUint(width)
		if err != nil {
			return nil, err
		}
		widest = max(widest, v)
		dst = append(dst, v)
	}
	if err := checkWidth(what+" dictionary", width, widest); err != nil {
		return nil, err
	}
	return dst, nil
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

// keyValue appends the dictionary value a vertex or node index just read
// selects to the interning key of the shape being skipped.
func (d *Decoder) keyValue(v uint64) {
	if d.keying {
		d.key = binary.AppendUvarint(d.key, v)
	}
}

// entryBox holds a newly decoded shape side by side with its own summary
// and its first entry, so the three cost one allocation and sit together.
type entryBox struct {
	e   NodeEntry
	s   Shape
	own NodeSummary
}

// entry parses one node entry: a skip pass finds its extent, checks its
// indices against the label's dictionaries, builds its shape's interning
// key — the raw bits of its fixed fields, then the value every vertex and
// node index selects — and gathers its class ids. The shape is built only
// when its key is new to this Decoder, and the entry only when its shape
// and class ids are.
func (d *Decoder) entry(r *bits.Reader) (entryRef, error) {
	start, vUsed, cUsed, nUsed := r.Pos(), d.vUsed, d.cUsed, d.nUsed
	d.key, d.cvals, d.keying = d.key[:0], d.cvals[:0], true
	err := d.parseShape(r, nil)
	d.keying = false
	if err != nil {
		return entryRef{}, err
	}
	var box *entryBox
	sref, ok := d.shapes[string(d.key)]
	if !ok {
		end, vEnd, cEnd, nEnd := r.Pos(), d.vUsed, d.cUsed, d.nUsed
		r.Seek(start)
		d.vUsed, d.cUsed, d.nUsed = vUsed, cUsed, nUsed
		box = &entryBox{}
		box.s.NodeSummary = &box.own
		if err := d.parseShape(r, &box.s); err != nil {
			return entryRef{}, err
		}
		d.vUsed, d.cUsed, d.nUsed = vEnd, cEnd, nEnd
		if r.Pos() != end {
			return entryRef{}, fmt.Errorf("core: entry build pass read %d bits, skip pass %d", r.Pos()-start, end-start)
		}
		sref = shapeRef{s: &box.s, id: uint64(len(d.shapes))}
		d.shapes[string(d.key)] = sref
	}
	if n := sref.s.classCount(); len(d.cvals) > n {
		// A member whose parent id reads −1 is not a member: its merged
		// and child class ids go, as the writer drops its other member
		// fields.
		d.cvals = slices.Delete(d.cvals, 1, 1+len(d.cvals)-n)
	}
	d.key = binary.AppendUvarint(d.key[:0], sref.id)
	for _, c := range d.cvals {
		d.key = binary.AppendUvarint(d.key, c)
	}
	if ref, ok := d.entries[string(d.key)]; ok {
		return ref, nil
	}
	e := &NodeEntry{}
	if box != nil {
		e = &box.e
	}
	e.Shape, e.Classes = sref.s, d.classes.alloc(len(d.cvals))
	for i, c := range d.cvals {
		e.Classes[i] = int(c)
	}
	ref := entryRef{e: e, id: uint64(len(d.entries))}
	d.entries[string(d.key)] = ref
	return ref, nil
}

// parseShape is the one grammar of a node entry: its fixed fields (see
// Shape.writeFixed), whose lane lists and counts determine how many ids it
// names, then one index per vertex-id, class-id and node-id occurrence, in
// that order. With e non-nil it decodes the shape into e, whose own
// summary is set; the class ids are the skip pass's. With e nil it is the
// skip pass: it reads the same bits and runs the same plausibility checks,
// but allocates nothing — scalars land in d.skip, d.skipOwn and d.skipSum,
// lane lists in d.lanes, indices are checked and keyed but not kept.
func (d *Decoder) parseShape(r *bits.Reader, e *Shape) error {
	start, build := r.Pos(), e != nil
	if !build {
		e = &d.skip
		e.NodeSummary = &d.skipOwn
	}
	// nV, nC and nN count the entry's vertex-id, class-id and node-id
	// occurrences as its fixed fields are read.
	nV, nC, nN := 0, 1, 1 // own class, NodeID
	kind, err := r.ReadUint(3)
	if err != nil {
		return err
	}
	e.Kind = lanewidth.Kind(kind)
	if e.Lanes, err = d.parseLanes(r, build); err != nil {
		return err
	}
	nV += 2 * len(e.Lanes) // InIDs, OutIDs
	member, err := r.ReadBit()
	if err != nil {
		return err
	}
	// Non-members write no tree-member fields.
	e.ParentID, e.MergedOutIDs, e.Children = -1, nil, nil
	if member {
		nV, nC, nN = nV+len(e.Lanes), nC+1, nN+1 // MergedOutIDs, merged class, ParentID
		nChildren, err := r.ReadUvarint()
		if err != nil {
			return err
		}
		if nChildren > 1<<12 {
			return fmt.Errorf("core: implausible child count %d", nChildren)
		}
		var kids []NodeSummary
		if build {
			kids, e.Children = make([]NodeSummary, nChildren), make([]*NodeSummary, nChildren)
		}
		for i := range int(nChildren) {
			lanes, err := d.parseLanes(r, build)
			if err != nil {
				return err
			}
			if build {
				kids[i].Lanes, e.Children[i] = lanes, &kids[i]
			}
			nV, nC, nN = nV+2*len(lanes), nC+1, nN+1
		}
	}
	nPath, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	if nPath > 1<<12 {
		return fmt.Errorf("core: implausible path-id count %d", nPath)
	}
	nV += int(nPath)
	// RealBits and VInputs lengths are kind-determined: one real bit per
	// consecutive path pair, one input per path vertex.
	e.RealBits, e.VInputs = nil, nil
	for i := uint64(1); i < nPath; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if build {
			e.RealBits = append(e.RealBits, b)
		}
	}
	for i := uint64(0); i < nPath; i++ {
		in, err := r.ReadUvarint()
		if err != nil {
			return err
		}
		if build {
			e.VInputs = append(e.VInputs, int(in))
		}
	}
	li, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	lj, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	e.LaneI, e.LaneJ = int(li), int(lj)
	if e.BridgeReal, err = r.ReadBit(); err != nil {
		return err
	}
	e.Left, e.Right = nil, nil
	for _, dst := range []**NodeSummary{&e.Left, &e.Right} {
		has, err := r.ReadBit()
		if err != nil {
			return err
		}
		if !has {
			continue
		}
		if *dst, err = d.parseOperand(r, build); err != nil {
			return err
		}
		nV, nC, nN = nV+2*len((*dst).Lanes), nC+1, nN+1
	}
	hasRM, err := r.ReadBit()
	if err != nil {
		return err
	}
	e.RootMember = nil
	if hasRM {
		lanes, err := d.parseLanes(r, build)
		if err != nil {
			return err
		}
		e.RootMember = &d.skipSum
		if build {
			e.RootMember = &NodeSummary{}
		}
		e.RootMember.Lanes = lanes
		nV, nC, nN = nV+2*len(lanes), nC+1, nN+1
	}
	if d.keying {
		d.key = binary.AppendUvarint(d.key, uint64(r.Pos()-start))
		d.key = r.AppendBits(d.key, start, r.Pos())
	}
	return d.parseIndices(r, e, member, build, nV, nC, nN)
}

// parseIndices reads an entry's index block — nV vertex-id, nC class-id
// and nN node-id indices — and, when building, fills the shape's ids in
// the order appendVertexIDs and appendNodeIDs list them.
func (d *Decoder) parseIndices(r *bits.Reader, e *Shape, member, build bool, nV, nC, nN int) error {
	d.vals = d.vals[:0]
	for range nV {
		v, err := d.vertexID(r)
		if err != nil {
			return err
		}
		if build {
			d.vals = append(d.vals, v)
		}
	}
	vertices := len(d.vals)
	for range nC {
		if _, err := d.classID(r); err != nil {
			return err
		}
	}
	for range nN {
		n, err := d.nodeID(r)
		if err != nil {
			return err
		}
		if build {
			d.vals = append(d.vals, n)
		}
	}
	if !build {
		return nil
	}
	vs, ns := d.vals[:vertices], d.vals[vertices:]
	take := func(n int) []uint64 {
		ids := d.ids.alloc(n)
		copy(ids, vs)
		vs = vs[n:]
		return ids
	}
	next := func() int {
		v := ns[0]
		ns = ns[1:]
		return int(v)
	}
	e.InIDs, e.OutIDs = take(len(e.Lanes)), take(len(e.Lanes))
	e.NodeID = next()
	if member {
		e.MergedOutIDs = take(len(e.Lanes))
		e.ParentID = next()
		for _, c := range e.Children {
			c.InIDs, c.MergedOutIDs = take(len(c.Lanes)), take(len(c.Lanes))
			c.NodeID = next()
		}
	}
	e.PathIDs = take(len(e.VInputs))
	for _, op := range e.operands() {
		if op != nil {
			op.InIDs, op.OutIDs = take(len(op.Lanes)), take(len(op.Lanes))
			op.NodeID = next()
		}
	}
	if rm := e.RootMember; rm != nil {
		rm.InIDs, rm.MergedOutIDs = take(len(rm.Lanes)), take(len(rm.Lanes))
		rm.NodeID = next()
	}
	return nil
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

// vertexID reads one vertex-id occurrence: an index into the label's
// vertex dictionary.
func (d *Decoder) vertexID(r *bits.Reader) (uint64, error) {
	v, err := d.index(r, "vertex", d.vdict, d.vRW, &d.vUsed)
	d.keyValue(v)
	return v, err
}

// classID reads one class-id occurrence: an index into the label's class
// dictionary.
func (d *Decoder) classID(r *bits.Reader) (int, error) {
	c, err := d.index(r, "class", d.cdict, d.cRW, &d.cUsed)
	if d.keying {
		d.cvals = append(d.cvals, c)
	}
	return int(c), err
}

// index reads one index into a dictionary of the label, in exactly the
// dictionary's index width, and returns the value it selects. Rows must be
// first used in dictionary order, so the occurrences determine the
// dictionary's order.
func (d *Decoder) index(r *bits.Reader, what string, dict []uint64, rw int, used *int) (uint64, error) {
	i, err := r.ReadUint(rw)
	if err != nil {
		return 0, err
	}
	if i >= uint64(len(dict)) {
		return 0, fmt.Errorf("core: %s index %d in a %d-id dictionary", what, i, len(dict))
	}
	if i > uint64(*used) {
		return 0, fmt.Errorf("core: %s dictionary row %d used before row %d", what, i, *used)
	}
	if i == uint64(*used) {
		*used++
	}
	return dict[i], nil
}

// nodeID reads one node-id occurrence: an index into the label's node
// dictionary.
func (d *Decoder) nodeID(r *bits.Reader) (uint64, error) {
	n, err := d.index(r, "node", d.ndict, d.nRW, &d.nUsed)
	d.keyValue(n)
	return n, err
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

// parseOperand reads a B-node operand's fixed fields — kind, lanes and
// input — into a fresh summary, or into d.skipSum on the skip pass.
func (d *Decoder) parseOperand(r *bits.Reader, build bool) (*NodeSummary, error) {
	o := &d.skipSum
	if build {
		o = &NodeSummary{}
	}
	kind, err := r.ReadUint(3)
	if err != nil {
		return nil, err
	}
	o.Kind = lanewidth.Kind(kind)
	if o.Lanes, err = d.parseLanes(r, build); err != nil {
		return nil, err
	}
	input, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	o.Input = int(input)
	return o, nil
}
