package core

// The reference encoder: a label's PLSC v6 bits written straight from its
// fields, one write per field, with no cached component, no shared layout
// and no splice. The package's encoder writes the property-independent
// bits of a label once per edge of a structure and splices in each
// property's class ids; refLabelBits and refEntryKey are the oracle it must
// match byte for byte.

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/bits"
)

// refLabelBits returns the label's encoding as packed bytes and a bit
// count.
func refLabelBits(l *EdgeLabel) (string, int) {
	var w bits.Writer
	rows, idx := refTable(l)
	w.WriteUvarint(uint64(len(rows)))
	refWriteTable(&w, rows, l, idx)
	return string(w.Buffer()), w.Bits()
}

// refEntryKey returns the entry's Key: its one-row table's bytes followed by
// the decimal bit count.
func refEntryKey(n *NodeEntry) string {
	var w bits.Writer
	refWriteTable(&w, []*NodeEntry{n}, nil, nil)
	return string(w.Buffer()) + strconv.Itoa(w.Bits())
}

// refTable returns the label's entry table — its distinct node entries,
// merged by Key, in first-use order along its certificates — and the row of
// every certificate path entry in that order.
func refTable(l *EdgeLabel) (rows []*NodeEntry, idx []int) {
	certs := []*CEdgeLabel{}
	if l.Own != nil {
		certs = append(certs, l.Own)
	}
	for _, e := range l.Emb {
		certs = append(certs, e.Payload)
	}
	var keys []string // keys[r] is rows[r]'s Key
	for _, c := range certs {
		for _, e := range c.Path {
			k := refEntryKey(e)
			r := slices.Index(keys, k)
			if r < 0 {
				r = len(rows)
				rows, keys = append(rows, e), append(keys, k)
			}
			idx = append(idx, r)
		}
	}
	return rows, idx
}

// refWriteTable writes a table's dictionaries and rows and, for a label (l
// non-nil, idx its certificates' row indices), the rest of the label.
func refWriteTable(w *bits.Writer, rows []*NodeEntry, l *EdgeLabel, idx []int) {
	var occV, occC, occN []uint64
	var ends [][3]int
	for _, e := range rows {
		occV, occC, occN = e.appendVertexIDs(occV), refClassIDs(occC, e), e.appendNodeIDs(occN)
		ends = append(ends, [3]int{len(occV), len(occC), len(occN)})
	}
	rowsEnd := len(occV)
	if l != nil {
		occV = l.appendVertexIDs(occV)
	}
	vd, cd, nd := refSortedDictionary(occV), refDictionary(occC), refSortedDictionary(occN)
	rwV := refWriteIDDict(w, vd)
	w.WriteUvarint(uint64(len(cd)))
	for _, id := range cd {
		writeClassID(w, int(id))
	}
	rwC := rowWidth(len(cd))
	rwN := refWriteIDDict(w, nd)
	var from [3]int
	for r, e := range rows {
		refWriteFixed(w, e)
		for _, v := range occV[from[0]:ends[r][0]] {
			w.WriteUint(v, rwV)
		}
		for _, v := range occC[from[1]:ends[r][1]] {
			w.WriteUint(v, rwC)
		}
		for _, v := range occN[from[2]:ends[r][2]] {
			w.WriteUint(v, rwN)
		}
		from = ends[r]
	}
	if l == nil {
		return
	}
	own := occV[rowsEnd:]
	rw := rowWidth(len(rows))
	cert := func(c *CEdgeLabel) {
		w.WriteUvarint(uint64(len(c.Path)))
		for _, r := range idx[:len(c.Path)] {
			w.WriteUint(uint64(r), rw)
		}
		idx = idx[len(c.Path):]
		w.WriteUvarint(uint64(c.OwnerPos))
	}
	w.WriteBit(l.Own != nil)
	if l.Own != nil {
		cert(l.Own)
	}
	w.WriteUvarint(uint64(len(l.Emb)))
	for _, e := range l.Emb {
		w.WriteUint(own[0], rwV)
		w.WriteUint(own[1], rwV)
		own = own[2:]
		w.WriteUvarint(uint64(e.Fwd))
		w.WriteUvarint(uint64(e.Bwd))
		cert(e.Payload)
	}
	w.WriteBit(l.Pointing != nil)
	if p := l.Pointing; p != nil {
		for _, v := range own[:3] {
			w.WriteUint(v, rwV)
		}
		w.WriteUvarint(uint64(p.DU))
		w.WriteUvarint(uint64(p.DV))
	}
}

// refDictionary replaces every id of occ by its row in the dictionary of
// its distinct ids in first-use order, and returns that dictionary.
func refDictionary(occ []uint64) []uint64 {
	var ids []uint64
	for k, id := range occ {
		r := slices.Index(ids, id)
		if r < 0 {
			r = len(ids)
			ids = append(ids, id)
		}
		occ[k] = uint64(r)
	}
	return ids
}

// refSortedDictionary replaces every id of occ by its row in the ascending
// list of its distinct ids, and returns that list.
func refSortedDictionary(occ []uint64) []uint64 {
	ids := slices.Compact(slices.Sorted(slices.Values(occ)))
	for k, id := range occ {
		occ[k] = uint64(slices.Index(ids, id))
	}
	return ids
}

// refWriteIDDict writes a vertex-id or node-id dictionary, its ids
// ascending, and returns the width of an index into it: a flag bit, 0 for
// fixed width and 1 for gaps, and the size; then either the width and
// every id in it, or the first id and every later id's distance to the
// one before it, less one, as varints — whichever of the two is shorter,
// fixed width on a tie.
func refWriteIDDict(w *bits.Writer, ids []uint64) int {
	fixed, gapped := refIDDictBits(ids)
	w.WriteBit(gapped < fixed)
	w.WriteUvarint(uint64(len(ids)))
	if gapped < fixed {
		for i, id := range ids {
			if i == 0 {
				w.WriteUvarint(id)
			} else {
				w.WriteUvarint(id - ids[i-1] - 1)
			}
		}
	} else {
		width := refWidth(ids)
		w.WriteUvarint(uint64(width))
		for _, id := range ids {
			w.WriteUint(id, width)
		}
	}
	return rowWidth(len(ids))
}

// refIDDictBits returns the bits an ascending vertex-id or node-id
// dictionary takes in its fixed-width and in its gap coding, flag bit and
// size included. A first id of 2⁶⁴−1 has no varint, so it has no gap
// coding.
func refIDDictBits(ids []uint64) (fixed, gapped int) {
	head := 1 + bits.UvarintLen(uint64(len(ids)))
	fixed = head + bits.UvarintLen(uint64(refWidth(ids))) + len(ids)*refWidth(ids)
	gapped = head
	for i, id := range ids {
		switch {
		case i > 0:
			gapped += bits.UvarintLen(id - ids[i-1] - 1)
		case id == ^uint64(0):
			return fixed, fixed + 1
		default:
			gapped += bits.UvarintLen(id)
		}
	}
	return fixed, gapped
}

// refWidth returns the bit length of the widest id.
func refWidth(ids []uint64) int {
	width := 0
	for _, id := range ids {
		for id>>uint(width) != 0 {
			width++
		}
	}
	return width
}

// refClassIDs appends the entry's class ids field by field, in wire order:
// its own, a member's merged class and its children's, its operands', and
// its root member's.
func refClassIDs(dst []uint64, n *NodeEntry) []uint64 {
	dst = append(dst, uint64(n.Classes[0]))
	if n.ParentID != -1 {
		dst = append(dst, uint64(n.Classes[1]))
		for i := range n.Children {
			dst = append(dst, uint64(n.Classes[2+i]))
		}
	}
	at := n.opsAt()
	for _, op := range []*NodeSummary{n.Left, n.Right} {
		if op != nil {
			dst = append(dst, uint64(n.Classes[at]))
			at++
		}
	}
	if n.RootMember != nil {
		dst = append(dst, uint64(n.Classes[at]))
	}
	return dst
}

// refWriteFixed writes an entry's fields other than its ids.
func refWriteFixed(w *bits.Writer, n *NodeEntry) {
	lanes := func(ls []int) {
		w.WriteUvarint(uint64(len(ls)))
		for _, l := range ls {
			w.WriteUvarint(uint64(l))
		}
	}
	w.WriteUint(uint64(n.Kind), 3)
	lanes(n.Lanes)
	w.WriteBit(n.ParentID != -1)
	if n.ParentID != -1 {
		w.WriteUvarint(uint64(len(n.Children)))
		for _, c := range n.Children {
			lanes(c.Lanes)
		}
	}
	w.WriteUvarint(uint64(len(n.PathIDs)))
	for _, b := range n.RealBits {
		w.WriteBit(b)
	}
	for _, in := range n.VInputs {
		w.WriteUvarint(uint64(in))
	}
	w.WriteUvarint(uint64(n.LaneI))
	w.WriteUvarint(uint64(n.LaneJ))
	w.WriteBit(n.BridgeReal)
	for _, op := range []*NodeSummary{n.Left, n.Right} {
		w.WriteBit(op != nil)
		if op != nil {
			w.WriteUint(uint64(op.Kind), 3)
			lanes(op.Lanes)
			w.WriteUvarint(uint64(op.Input))
		}
	}
	w.WriteBit(n.RootMember != nil)
	if rm := n.RootMember; rm != nil {
		lanes(rm.Lanes)
	}
}

// requireRefEncoding fails the test unless the label's encoding, as every
// reader of it sees it (Bits, EncodeLabel, Key), is the reference
// encoding, and every entry on its certificates has the reference Key.
func requireRefEncoding(t *testing.T, what string, l *EdgeLabel) {
	t.Helper()
	want, wantBits := refLabelBits(l)
	data, nbits := EncodeLabel(l)
	if nbits != wantBits || l.Bits() != wantBits || string(data) != want {
		t.Fatalf("%s: encoding (%d bits) differs from the reference encoding (%d bits)", what, nbits, wantBits)
	}
	if l.Key() != want+strconv.Itoa(wantBits) {
		t.Fatalf("%s: Key differs from the reference encoding", what)
	}
	certs := []*CEdgeLabel{l.Own}
	for _, e := range l.Emb {
		certs = append(certs, e.Payload)
	}
	for _, c := range certs {
		if c == nil {
			continue
		}
		for _, e := range c.Path {
			if e.Key() != refEntryKey(e) {
				t.Fatalf("%s: node %d's Key differs from the reference", what, e.NodeID)
			}
		}
	}
}
