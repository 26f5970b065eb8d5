package core

import (
	"bytes"
	"errors"
	mathbits "math/bits"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/lanewidth"
)

// TestLabelEncodeDecodeRoundTrip proves the reported bit counts correspond
// to a real self-delimiting wire format: every honest label decodes back to
// a bit-identical re-encoding, and the decoded labeling still verifies.
func TestLabelEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		prop algebra.Property
		mark []graph.Vertex
	}{
		{"cycle bipartite", graph.CycleGraph(10), algebra.Colorable{Q: 2}, nil},
		{"caterpillar forest", caterpillar(4, 2), algebra.Acyclic{}, nil},
		{"cycle independent set", graph.CycleGraph(8), algebra.IndependentSet{}, []graph.Vertex{0, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheme(tc.prop, 8)
			cfg := cert.NewConfig(tc.g)
			if tc.mark != nil {
				cfg.MarkSet(tc.mark)
			}
			labeling, _, err := prove(s, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			decoded := &Labeling{Edges: map[graph.Edge]*EdgeLabel{}}
			for e, el := range labeling.Edges {
				data, nbits := EncodeLabel(el)
				if nbits != el.Bits() {
					t.Fatalf("edge %v: Bits()=%d but encoder produced %d", e, el.Bits(), nbits)
				}
				back, err := DecodeLabel(data, nbits)
				if err != nil {
					t.Fatalf("edge %v: decode: %v", e, err)
				}
				data2, nbits2 := EncodeLabel(back)
				if nbits2 != nbits || !bytes.Equal(data, data2) {
					t.Fatalf("edge %v: re-encoding differs (%d vs %d bits)", e, nbits, nbits2)
				}
				decoded.Edges[e] = back
			}
			if !AllAccept(verify(t, s, cfg, decoded)) {
				t.Fatal("decoded labeling rejected")
			}
		})
	}
}

func TestDecodeLabelRejectsGarbage(t *testing.T) {
	if _, err := DecodeLabel(nil, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncations of a real label must fail, not panic.
	s := NewScheme(algebra.Colorable{Q: 2}, 4)
	cfg := cert.NewConfig(graph.PathGraph(5))
	labeling, _, err := prove(s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range labeling.Edges {
		data, nbits := EncodeLabel(el)
		for _, cut := range []int{1, nbits / 4, nbits / 2, nbits - 1} {
			if _, err := DecodeLabel(data, cut); err == nil {
				t.Fatalf("truncation to %d of %d bits accepted", cut, nbits)
			}
		}
		break
	}
}

// TestAppendLabelAppends pins AppendLabel against EncodeLabel on every
// generator family: onto a non-empty buffer it appends exactly EncodeLabel's
// bytes and leaves the buffer's own bytes alone, and EncodeLabel's buffer
// is sized exactly.
func TestAppendLabelAppends(t *testing.T) {
	prefix := []byte{0xa5, 0xff, 0x01}
	for _, tc := range regressionConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			labeling, _, err := prove(NewScheme(tc.prop, 8), cert.NewConfig(tc.g), nil)
			if err != nil {
				t.Fatal(err)
			}
			for e, el := range labeling.Edges {
				want, wantBits := EncodeLabel(el)
				if len(want) != cap(want) || wantBits != el.Bits() {
					t.Fatalf("edge %v: %d bits in %d bytes of a %d-byte buffer, Bits()=%d", e, wantBits, len(want), cap(want), el.Bits())
				}
				got, gotBits := AppendLabel(append([]byte(nil), prefix...), el)
				if gotBits != wantBits || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
					t.Fatalf("edge %v: AppendLabel gave %d bits %x, want %d bits %x after the prefix", e, gotBits, got, wantBits, want)
				}
			}
		})
	}
}

// hostileLabel is a label stream built by hand and the error text its
// rejection must carry. An empty want marks a stream that decodes but is
// not canonical: its re-encoding differs, so the caller's re-encode check
// rejects it.
type hostileLabel struct {
	data  []byte
	nbits int
	want  string
}

// writeMinEntry writes a minimal node entry with one node id and one path
// vertex id (1), its ids in the given widths.
func writeMinEntry(w *bits.Writer, vertexWidth, nodeWidth int, nodeID uint64) {
	writePathEntry(w, vertexWidth, nodeWidth, nodeID, []uint64{1}, 0)
}

// writePathEntry writes a node entry whose only vertex ids are its path
// ids: a dictionary of the given ids, each in vertexWidth bits, then one
// path id per index in rows, each in the dictionary's index width.
func writePathEntry(w *bits.Writer, vertexWidth, nodeWidth int, nodeID uint64, dict []uint64, rows ...uint64) {
	w.WriteUvarint(uint64(vertexWidth))
	w.WriteUvarint(uint64(nodeWidth))
	w.WriteUvarint(uint64(len(dict)))
	for _, id := range dict {
		w.WriteUint(id, vertexWidth)
	}
	w.WriteUint(nodeID, nodeWidth)
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0) // no lanes, so no lane-aligned ids
	w.WriteUint(1, algebra.ClassHashBits)
	w.WriteUvarint(0)
	w.WriteBit(false) // not a tree member
	w.WriteUvarint(uint64(len(rows)))
	for _, r := range rows {
		w.WriteUint(r, rowWidth(len(dict)))
	}
	for range max(len(rows)-1, 0) {
		w.WriteBit(false) // the path edge is virtual
	}
	for range rows {
		w.WriteUvarint(0) // the path vertex's input
	}
	w.WriteUvarint(0) // LaneI
	w.WriteUvarint(0) // LaneJ
	w.WriteBit(false) // BridgeReal
	w.WriteBit(false) // no left operand
	w.WriteBit(false) // no right operand
	w.WriteBit(false) // no root member
}

// writeOwnTail ends a label after its entry table: an own certificate
// whose path is the given rows, each in rw bits, owner position 0, and no
// embedding entries or pointing label.
func writeOwnTail(w *bits.Writer, rw int, rows ...uint64) {
	w.WriteBit(true)
	w.WriteUvarint(uint64(len(rows)))
	for _, r := range rows {
		w.WriteUint(r, rw)
	}
	w.WriteUvarint(0) // owner position
	w.WriteUvarint(0) // label id width
	w.WriteUvarint(0) // no embedding entries
	w.WriteBit(false) // no pointing label
}

// hostileLabels returns label streams whose width, rank, entry-table or
// vertex-dictionary fields lie. Every other field is honest, so the named check is the one
// that fires.
func hostileLabels(t *testing.T) map[string]hostileLabel {
	t.Helper()
	out := map[string]hostileLabel{}
	add := func(name, want string, w *bits.Writer) {
		out[name] = hostileLabel{w.Bytes(), w.Bits(), want}
	}
	// noTable starts a label with an empty entry table and no own
	// certificate; ownEntry starts one whose table is the single entry
	// that follows.
	noTable := func() *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(0)
		w.WriteBit(false)
		return &w
	}
	ownEntry := func() *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(1)
		return &w
	}

	w := noTable()
	w.WriteUvarint(65)
	add("label width 65", "exceeds 64", w)

	w = noTable()
	w.WriteUvarint(1 << 40)
	add("label width 2^40", "exceeds 64", w)

	// A pointing label whose ids need 2 bits, written in 8.
	w = noTable()
	w.WriteUvarint(8)
	w.WriteUvarint(0)
	w.WriteBit(true)
	for _, id := range []uint64{1, 1, 2} {
		w.WriteUint(id, 8)
	}
	w.WriteUvarint(0)
	w.WriteUvarint(1)
	add("label width over widest id", "width", w)

	// These two streams end in 64 zero bits, so they are rejected by the
	// width they lie in, not by the row count's bound on remaining bits.
	w = ownEntry()
	w.WriteUvarint(65)
	w.WriteUint(0, 64)
	add("entry vertex width 65", "exceeds 64", w)

	w = ownEntry()
	w.WriteUvarint(0)
	w.WriteUvarint(65)
	w.WriteUint(0, 64)
	add("entry node width 65", "exceeds 64", w)

	// A label whose own certificate is one minimal entry, its ids written
	// in the given widths.
	idEntry := func(vertexWidth, nodeWidth int) *bits.Writer {
		w := ownEntry()
		writeMinEntry(w, vertexWidth, nodeWidth, 1)
		writeOwnTail(w, 0, 0)
		return w
	}
	ok := idEntry(1, 1)
	if err := decodeCanonical(new(Decoder), ok.Bytes(), ok.Bits()); err != nil {
		t.Fatalf("the minimal entry in its own widths does not decode canonically: %v", err)
	}
	add("entry vertex width over widest id", "entry vertex id width", idEntry(2, 1))
	add("entry node width 64 over widest id", "entry node id width", idEntry(1, 64))

	// A class id with a collision rank far above any id an int can hold:
	// an entry with no ids, whose class field is the first thing after
	// its lanes.
	w = ownEntry()
	w.WriteUvarint(0)
	w.WriteUvarint(0)
	w.WriteUvarint(0) // empty vertex dictionary
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0)
	w.WriteUint(0, algebra.ClassHashBits)
	w.WriteUvarint(1 << 62)
	add("huge collision rank", "collision rank", w)

	w = ownEntry()
	w.WriteUvarint(0)
	w.WriteUvarint(0)
	w.WriteUvarint(0) // empty vertex dictionary
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0)
	w.WriteUint(0, algebra.ClassHashBits)
	w.WriteUvarint(algebra.MaxClassRank + 1)
	add("collision rank one past the cap", "collision rank", w)

	// Entry tables. table writes a table of minimal entries with the given
	// node ids: equal ids give byte-identical rows.
	table := func(nodeIDs ...uint64) *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(uint64(len(nodeIDs)))
		for _, id := range nodeIDs {
			writeMinEntry(&w, 1, mathbits.Len64(id), id)
		}
		return &w
	}
	w = table(1, 2, 3)
	writeOwnTail(w, 2, 0, 1, 2)
	if err := decodeCanonical(new(Decoder), w.Bytes(), w.Bits()); err != nil {
		t.Fatalf("a three-row table used in order does not decode canonically: %v", err)
	}
	w = table(1, 2, 3)
	writeOwnTail(w, 2, 0, 1, 3)
	add("row index past the table", "row index 3", w)

	w = table(1, 2)
	writeOwnTail(w, 1, 0)
	add("unused row", "used by no certificate", w)

	w = table(1, 2)
	writeOwnTail(w, 1, 1, 0)
	add("rows out of first-use order", "used before row", w)

	w = table(1, 1)
	writeOwnTail(w, 1, 0, 1)
	add("duplicate row", "", w)

	var huge bits.Writer
	huge.WriteUvarint(1 << 40)
	add("huge row count", "entry table of", &huge)

	// Vertex dictionaries. dictLabel writes a label whose one entry's path
	// ids are the given indices into a dictionary of the given ids.
	dictLabel := func(dict []uint64, rows ...uint64) *bits.Writer {
		w := ownEntry()
		writePathEntry(w, 2, 1, 1, dict, rows...)
		writeOwnTail(w, 0, 0)
		return w
	}
	w = dictLabel([]uint64{1, 2, 3}, 0, 1, 2)
	if err := decodeCanonical(new(Decoder), w.Bytes(), w.Bits()); err != nil {
		t.Fatalf("a three-id dictionary used in order does not decode canonically: %v", err)
	}
	add("vertex index past the dictionary", "vertex index 3", dictLabel([]uint64{1, 2, 3}, 0, 1, 3))
	add("unused dictionary row", "used by no id", dictLabel([]uint64{1, 2}, 0))
	add("dictionary rows out of first-use order", "used before row", dictLabel([]uint64{1, 2}, 1, 0))
	add("duplicate dictionary id", "", dictLabel([]uint64{2, 2}, 0, 1))

	// A dictionary size far past the bits that follow, and one past the
	// ids a width of 0 can hold. Both streams end in 64 zero bits, so only
	// the size's bounds can reject them.
	w = ownEntry()
	w.WriteUvarint(40)
	w.WriteUvarint(1)
	w.WriteUvarint(1 << 40)
	w.WriteUint(0, 64)
	add("huge dictionary", "vertex dictionary of", w)

	w = ownEntry()
	w.WriteUvarint(0)
	w.WriteUvarint(1)
	w.WriteUvarint(2)
	w.WriteUint(0, 64)
	add("width-0 dictionary of two ids", "vertex dictionary of 2 ids at width 0", w)
	return out
}

// TestMinEntryBits pins the row-count bound's divisor: the smallest entry
// the grammar admits takes exactly minEntryBits bits.
func TestMinEntryBits(t *testing.T) {
	var w bits.Writer
	w.WriteUvarint(0)
	w.WriteUvarint(0)
	w.WriteUvarint(0) // empty vertex dictionary
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0) // no lanes
	w.WriteUint(0, algebra.ClassHashBits)
	w.WriteUvarint(0) // rank
	w.WriteBit(false) // not a member
	w.WriteUvarint(0) // no path ids
	w.WriteUvarint(0) // LaneI
	w.WriteUvarint(0) // LaneJ
	for range 4 {
		w.WriteBit(false) // BridgeReal, no operands, no root member
	}
	if w.Bits() != minEntryBits {
		t.Fatalf("the smallest entry takes %d bits, minEntryBits is %d", w.Bits(), minEntryBits)
	}
	var d Decoder
	r := bits.NewReader(w.Bytes(), w.Bits())
	if _, err := d.parseEntry(r, true); err != nil || r.Pos() != minEntryBits {
		t.Fatalf("the smallest entry does not parse: %v", err)
	}
}

// decodeCanonical decodes a label with d and, like a certificate decoder,
// rejects it unless it re-encodes to its own bits.
func decodeCanonical(d *Decoder, data []byte, nbits int) error {
	el, err := d.DecodeLabel(data, nbits)
	if err != nil {
		return err
	}
	again, againBits := EncodeLabel(el)
	if againBits != nbits || !bytes.Equal(again, data[:len(again)]) {
		return errNotCanonical
	}
	return nil
}

var errNotCanonical = errors.New("re-encoding differs")

// TestDecodeRejectsHostileWidthsAndRanks pins the checks of the fixed-width
// fields, the entry table and the vertex dictionaries: an id width above
// 64, an id width wider than the widest id it carries (a second encoding
// of the same ids), a collision rank whose id does not fit an int, a row
// or vertex index past its table or dictionary, a row no certificate or
// dictionary id no occurrence uses, rows used out of order, a row count or
// dictionary size the remaining bits (or, for a dictionary, its width)
// cannot hold, and a repeated row or dictionary id (which decodes and
// fails the re-encode check) are each rejected — without a panic, and
// without an allocation sized by the lying field.
func TestDecodeRejectsHostileWidthsAndRanks(t *testing.T) {
	for name, h := range hostileLabels(t) {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			want := h.want
			if want == "" {
				want = errNotCanonical.Error()
			}
			var one Decoder
			err := decodeCanonical(&one, h.data, h.nbits)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("decode error %v, want one naming %q", err, want)
			}
			var d Decoder
			decodeCanonical(&d, h.data, h.nbits) // the Decoder's tables
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				if decodeCanonical(&d, h.data, h.nbits) == nil {
					t.Fatal("hostile label decoded")
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1<<10 {
				t.Fatalf("rejecting the label allocates %d bytes", per)
			}
		})
	}
}

// TestEntryTableMergesByKey pins how a label's entry table is built: rows
// are merged by canonical encoding, not by pointer, so a label whose
// embedding payload is a clone of its own certificate writes each entry
// once — whether the table is small enough for the linear row scan or
// large enough for the keyed one — and decodes to one shared certificate.
func TestEntryTableMergesByKey(t *testing.T) {
	for _, rows := range []int{3, linearRows, 3 * linearRows} {
		own := &CEdgeLabel{OwnerPos: 1}
		for i := range rows {
			own.Path = append(own.Path, &NodeEntry{NodeID: i + 1, Kind: lanewidth.TNode, ParentID: -1, PathIDs: []uint64{uint64(i)}, VInputs: []int{0}})
		}
		el := &EdgeLabel{Own: own, Emb: []EmbEntry{{UID: 1, VID: 2, Fwd: 1, Bwd: 1, Payload: own.clone()}}}
		single := &EdgeLabel{Own: own}
		data, nbits := EncodeLabel(el)
		_, ownBits := EncodeLabel(single)
		// The clone adds its embedding fields and one row index per entry,
		// never a second copy of an entry.
		if extra := nbits - ownBits; extra > 64+rows*rowWidth(rows)+8 {
			t.Fatalf("%d rows: the cloned payload adds %d bits", rows, extra)
		}
		if el.Bits() != nbits {
			t.Fatalf("%d rows: Bits()=%d, encoding has %d", rows, el.Bits(), nbits)
		}
		dec, err := DecodeLabel(data, nbits)
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		if dec.Own != dec.Emb[0].Payload {
			t.Fatalf("%d rows: the decoded payload is not the decoded own certificate", rows)
		}
		again, againBits := EncodeLabel(dec)
		if againBits != nbits || !bytes.Equal(again, data) {
			t.Fatalf("%d rows: re-encoding differs", rows)
		}
	}
}

// TestVertexDictionaryWritesEachIDOnce pins the per-entry vertex-id
// dictionary: an entry whose path names d distinct vertices, each twice,
// writes each id once and every occurrence as a bitlen(d−1)-bit index —
// whether the dictionary is small enough for the linear scan or large
// enough for the keyed one — and decodes back to its own bits.
func TestVertexDictionaryWritesEachIDOnce(t *testing.T) {
	for _, d := range []int{3, linearRows, 3 * linearRows} {
		var ids []uint64
		for i := range 2 * d {
			ids = append(ids, uint64(1<<10+i%d))
		}
		entry := &NodeEntry{NodeID: 1, Kind: lanewidth.PNode, ParentID: -1, PathIDs: ids,
			RealBits: make([]bool, len(ids)-1), VInputs: make([]int, len(ids))}
		plain := &NodeEntry{NodeID: 1, Kind: lanewidth.PNode, ParentID: -1, RealBits: entry.RealBits[:0], VInputs: entry.VInputs}
		// Against an entry with the same fields but no vertex ids, the
		// path costs its dictionary (γ(d) over γ(0), d ids of 11 bits) and
		// 2d indices, plus its longer length and real bits.
		want := plain.bits() - bits.UvarintLen(0) - bits.UvarintLen(0) - bits.UvarintLen(0) +
			bits.UvarintLen(11) + bits.UvarintLen(uint64(d)) + 11*d + 2*d*rowWidth(d) +
			bits.UvarintLen(uint64(len(ids))) + len(ids) - 1
		if got := entry.bits(); got != want {
			t.Fatalf("d=%d: the entry takes %d bits, want %d", d, got, want)
		}
		el := &EdgeLabel{Own: &CEdgeLabel{Path: []*NodeEntry{entry}}}
		data, nbits := EncodeLabel(el)
		if err := decodeCanonical(new(Decoder), data, nbits); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}
