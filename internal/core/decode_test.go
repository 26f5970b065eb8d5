package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
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

// canon, given as a dictionary's width, writes the dictionary as the
// encoder does: in its shorter coding (refWriteIDDict).
const canon = -1

// writeFixedDict writes a vertex-id or node-id dictionary in the
// fixed-width coding: its flag, its size, the given width, then each id in
// that width.
func writeFixedDict(w *bits.Writer, width int, ids []uint64) {
	w.WriteBit(false)
	w.WriteUvarint(uint64(len(ids)))
	w.WriteUvarint(uint64(width))
	for _, id := range ids {
		w.WriteUint(id, width)
	}
}

// writeGapDict writes a vertex-id or node-id dictionary in the gap coding:
// its flag, its size, then the given gaps.
func writeGapDict(w *bits.Writer, gaps ...uint64) {
	w.WriteBit(true)
	w.WriteUvarint(uint64(len(gaps)))
	for _, g := range gaps {
		w.WriteUvarint(g)
	}
}

// writeDicts writes a table's dictionaries: the vertex ids, each in
// vertexWidth bits, the class ids, then the node ids, each in nodeWidth
// bits; a width of canon writes its dictionary as the encoder does.
func writeDicts(w *bits.Writer, vertexWidth int, vertex []uint64, nodeWidth int, nodes []uint64, classes ...int) {
	writeIDs := func(width int, ids []uint64) {
		if width == canon {
			refWriteIDDict(w, ids)
		} else {
			writeFixedDict(w, width, ids)
		}
	}
	writeIDs(vertexWidth, vertex)
	w.WriteUvarint(uint64(len(classes)))
	for _, c := range classes {
		w.WriteUint(uint64(c), algebra.ClassHashBits)
		w.WriteUvarint(0) // collision rank
	}
	writeIDs(nodeWidth, nodes)
}

// writeMinEntry writes a minimal node entry: node index ni in nrw bits,
// then class index 0 and one path vertex, index 0, both into one-row
// dictionaries.
func writeMinEntry(w *bits.Writer, nrw int, ni uint64) {
	writeEntry(w, nrw, ni, 0, 0, 0, 0)
}

// writeEntry writes a node entry whose only vertex ids are its path ids:
// its fixed fields, then its index block — one path id per vertex index in
// path, each in vrw bits, its class as index ci in crw bits and its node
// id as index ni in nrw bits.
func writeEntry(w *bits.Writer, nrw int, ni uint64, crw int, ci uint64, vrw int, path ...uint64) {
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0) // no lanes, so no lane-aligned ids
	w.WriteBit(false) // not a tree member
	w.WriteUvarint(uint64(len(path)))
	for range max(len(path)-1, 0) {
		w.WriteBit(false) // the path edge is virtual
	}
	for range path {
		w.WriteUvarint(0) // the path vertex's input
	}
	w.WriteUvarint(0) // LaneI
	w.WriteUvarint(0) // LaneJ
	w.WriteBit(false) // BridgeReal
	w.WriteBit(false) // no left operand
	w.WriteBit(false) // no right operand
	w.WriteBit(false) // no root member
	for _, v := range path {
		w.WriteUint(v, vrw)
	}
	w.WriteUint(ci, crw)
	w.WriteUint(ni, nrw)
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
	w.WriteUvarint(0) // no embedding entries
	w.WriteBit(false) // no pointing label
}

// rowsOf returns the first-use rows of ids: the distinct ids in order,
// and each id's row.
func rowsOf(ids ...uint64) (dict, rows []uint64) {
	for _, id := range ids {
		i := slices.Index(dict, id)
		if i < 0 {
			i = len(dict)
			dict = append(dict, id)
		}
		rows = append(rows, uint64(i))
	}
	return dict, rows
}

// hostileLabels returns label streams whose width, rank, entry-table or
// dictionary fields lie. Every other field is honest, so the named check
// is the one that fires.
func hostileLabels(t *testing.T) map[string]hostileLabel {
	t.Helper()
	out := map[string]hostileLabel{}
	add := func(name, want string, w *bits.Writer) {
		out[name] = hostileLabel{w.Bytes(), w.Bits(), want}
	}
	canonical := func(what string, w *bits.Writer) {
		if err := decodeCanonical(new(Decoder), w.Bytes(), w.Bits()); err != nil {
			t.Fatalf("%s does not decode canonically: %v", what, err)
		}
	}
	// ownEntry starts a label whose table is the single entry that follows
	// its dictionaries.
	ownEntry := func() *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(1)
		return &w
	}

	// The label's own ids (here a pointing label's X, UID and VID) are
	// indices into the vertex dictionary, so the width they are written
	// in is that dictionary's. pointing writes a label with no table whose
	// pointing ids are the given indices into a dictionary of the given
	// ids in the given width.
	pointing := func(width int, dict []uint64, idx ...uint64) *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(0)
		writeDicts(&w, width, dict, canon, nil)
		w.WriteBit(false) // no own certificate
		w.WriteUvarint(0) // no embedding entries
		w.WriteBit(true)
		for _, i := range idx {
			w.WriteUint(i, rowWidth(len(dict)))
		}
		w.WriteUvarint(0) // DU
		w.WriteUvarint(1) // DV
		return &w
	}
	canonical("a pointing label in its own coding", pointing(canon, []uint64{1, 2}, 0, 0, 1))
	canonical("a pointing label in its own width", pointing(canon, []uint64{1000, 1500, 2000}, 0, 2, 1))
	// A pointing label whose ids need 2 bits, written in 8.
	add("label width over widest id", "vertex dictionary id width", pointing(8, []uint64{1, 2}, 0, 0, 1))
	add("pointing index past the dictionary", "vertex index 3", pointing(2, []uint64{1, 2, 3}, 0, 1, 3))

	// These streams end in 64 zero bits, so they are rejected by the
	// width they lie in, not by a count's bound on remaining bits.
	for name, width := range map[string]uint64{"label width 65": 65, "label width 2^40": 1 << 40} {
		var w bits.Writer
		w.WriteUvarint(0)
		w.WriteBit(false) // fixed width
		w.WriteUvarint(2)
		w.WriteUvarint(width)
		w.WriteUint(0, 64)
		add(name, "exceeds 64", &w)
	}

	w := ownEntry()
	w.WriteBit(false) // fixed width
	w.WriteUvarint(1)
	w.WriteUvarint(65)
	w.WriteUint(0, 64)
	add("entry vertex width 65", "exceeds 64", w)

	w = ownEntry()
	refWriteIDDict(w, nil) // empty vertex dictionary
	w.WriteUvarint(1)
	w.WriteUint(1, algebra.ClassHashBits)
	w.WriteUvarint(0) // one class
	w.WriteBit(false) // fixed width
	w.WriteUvarint(1)
	w.WriteUvarint(65)
	w.WriteUint(0, 64)
	add("entry node width 65", "exceeds 64", w)

	// A label whose own certificate is one minimal entry, its ids written
	// in the given dictionary widths.
	idEntry := func(vertexWidth, nodeWidth int) *bits.Writer {
		w := ownEntry()
		writeDicts(w, vertexWidth, []uint64{1}, nodeWidth, []uint64{1}, 1)
		writeMinEntry(w, 0, 0)
		writeOwnTail(w, 0, 0)
		return w
	}
	canonical("the minimal entry in its own codings", idEntry(canon, canon))
	add("entry vertex width over widest id", "vertex dictionary id width", idEntry(2, 1))
	add("entry node width 64 over widest id", "node dictionary id width", idEntry(1, 64))

	// A class id whose collision rank is far above any id an int can
	// hold, and one just past the cap: the one class of the dictionary.
	for name, rank := range map[string]uint64{
		"huge collision rank":             1 << 62,
		"collision rank one past the cap": algebra.MaxClassRank + 1,
	} {
		w = ownEntry()
		refWriteIDDict(w, nil) // empty vertex dictionary
		w.WriteUvarint(1)      // one class
		w.WriteUint(0, algebra.ClassHashBits)
		w.WriteUvarint(rank)
		add(name, "collision rank", w)
	}

	// Entry tables. table writes a table of minimal entries with the given
	// node ids: equal ids give byte-identical rows.
	table := func(nodeIDs ...uint64) *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(uint64(len(nodeIDs)))
		nodes, rows := rowsOf(nodeIDs...)
		writeDicts(&w, canon, []uint64{1}, canon, nodes, 1)
		for _, r := range rows {
			writeMinEntry(&w, rowWidth(len(nodes)), r)
		}
		return &w
	}
	w = table(1, 2, 3)
	writeOwnTail(w, 2, 0, 1, 2)
	canonical("a three-row table used in order", w)
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

	// Vertex dictionaries. vertexLabel writes a label whose one entry's
	// path ids are the given indices into a vertex dictionary of the given
	// ids in the given width.
	vertexLabel := func(width int, dict []uint64, path ...uint64) *bits.Writer {
		w := ownEntry()
		writeDicts(w, width, dict, canon, []uint64{1}, 1)
		writeEntry(w, 0, 0, 0, 0, rowWidth(len(dict)), path...)
		writeOwnTail(w, 0, 0)
		return w
	}
	canonical("a three-id vertex dictionary used in order", vertexLabel(canon, []uint64{1, 2, 3}, 0, 1, 2))
	canonical("a vertex dictionary used out of order", vertexLabel(canon, []uint64{1, 2, 3}, 2, 0, 1))
	add("vertex index past the dictionary", "vertex index 3", vertexLabel(canon, []uint64{1, 2, 3}, 0, 1, 3))
	add("unused dictionary row", "vertex dictionary row 1 of 2 is used by no id", vertexLabel(canon, []uint64{1, 2}, 0))
	add("dictionary not ascending", "vertex dictionary id 1 follows id 2", vertexLabel(2, []uint64{2, 1}, 0, 1))
	add("duplicate dictionary id", "vertex dictionary id 2 follows id 2", vertexLabel(2, []uint64{2, 2}, 0, 1))

	// A vertex row that neither entry of a two-row table uses, and its
	// honest twin, whose second entry uses a row the first does not.
	twoEntries := func(second uint64) *bits.Writer {
		w := &bits.Writer{}
		w.WriteUvarint(2)
		writeDicts(w, canon, []uint64{1, 2}, canon, []uint64{1, 2}, 1)
		writeEntry(w, 1, 0, 0, 0, 1, 1)
		writeEntry(w, 1, 1, 0, 0, 1, second)
		writeOwnTail(w, 1, 0, 1)
		return w
	}
	canonical("vertex rows first used out of order across entries", twoEntries(0))
	add("vertex row unused across entries", "vertex dictionary row 0 of 2 is used by no id", twoEntries(1))

	// A vertex dictionary size far past the bits that follow, and one past
	// the ids a width of 0 can hold. Both streams end in 64 zero bits, so
	// only the size's bounds can reject them.
	w = ownEntry()
	w.WriteBit(false) // fixed width
	w.WriteUvarint(1 << 40)
	w.WriteUvarint(1)
	w.WriteUint(0, 64)
	add("huge dictionary", "vertex dictionary of", w)

	w = ownEntry()
	w.WriteBit(false) // fixed width
	w.WriteUvarint(2)
	w.WriteUvarint(0)
	w.WriteUint(0, 64)
	add("width-0 dictionary of two ids", "vertex dictionary of 2 ids at width 0", w)

	// Gap-coded vertex dictionaries: a size far past the bits that follow,
	// rejected before the dictionary grows, and ids that pass 2⁶⁴−1.
	w = ownEntry()
	w.WriteBit(true) // gaps
	w.WriteUvarint(1 << 40)
	w.WriteUint(0, 64)
	add("huge gap-coded dictionary", "gap-coded ids in", w)

	w = ownEntry()
	writeGapDict(w, 1<<63, 1<<62, 1<<62)
	w.WriteUint(0, 64)
	add("gap-coded ids past 2^64", "overflows 64 bits", w)

	// A gap-coded dictionary of 2¹⁶ one-bit gaps that fill the label: the
	// gaps fit the bits, but the index every row needs does not, so it is
	// rejected before 2¹⁶ ids are read. Given room for those indices (zero
	// bits), it is read into the Decoder's reused buffer and rejected by
	// the first field past it.
	const oneBitGaps = 1 << 16
	w = ownEntry()
	writeGapDict(w, make([]uint64, oneBitGaps)...)
	add("gap-coded dictionary of one-bit gaps", "gap-coded ids in", w)
	w = ownEntry()
	writeGapDict(w, make([]uint64, oneBitGaps)...)
	for range oneBitGaps * rowWidth(oneBitGaps) / 64 {
		w.WriteUint(0, 64)
	}
	add("gap-coded dictionary of one-bit gaps and room for its indices", "class index 0", w)

	// A dictionary in the longer of its two codings decodes, and fails
	// the re-encode check: three consecutive ids are shorter as gaps, and
	// four spread ones in a fixed width.
	add("dictionary in the longer fixed coding", "", vertexLabel(2, []uint64{1, 2, 3}, 0, 1, 2))
	spread := []uint64{100, 400, 700, 1000}
	if fixed, gapped := refIDDictBits(spread); fixed >= gapped {
		t.Fatalf("%v takes %d bits in a fixed width and %d as gaps", spread, fixed, gapped)
	}
	w = ownEntry()
	writeGapDict(w, 100, 299, 299, 299)
	w.WriteUvarint(1) // one class
	w.WriteUint(1, algebra.ClassHashBits)
	w.WriteUvarint(0) // collision rank
	refWriteIDDict(w, []uint64{1})
	writeEntry(w, 0, 0, 0, 0, 2, 0, 1, 2, 3)
	writeOwnTail(w, 0, 0)
	add("dictionary in the longer gap coding", "", w)

	// Class and node dictionaries. dictTable writes a label whose table
	// has one minimal entry per index pair, its class and node the given
	// indices into class and node dictionaries of the given ids, the node
	// ids in the given width.
	dictTable := func(classes []int, nodeWidth int, nodes []uint64, ci, ni []uint64) *bits.Writer {
		var w bits.Writer
		w.WriteUvarint(uint64(len(ci)))
		writeDicts(&w, canon, []uint64{1}, nodeWidth, nodes, classes...)
		var rows []uint64
		for i := range ci {
			writeEntry(&w, rowWidth(len(nodes)), ni[i], rowWidth(len(classes)), ci[i], 0, 0)
			rows = append(rows, uint64(i))
		}
		writeOwnTail(&w, rowWidth(len(ci)), rows...)
		return &w
	}
	three, two := []uint64{1, 2, 3}, []uint64{1, 2}
	classLabel := func(classes []int, ci ...uint64) *bits.Writer {
		return dictTable(classes, canon, three[:len(ci)], ci, []uint64{0, 1, 2}[:len(ci)])
	}
	canonical("a three-id class dictionary used in order", classLabel([]int{1, 2, 3}, 0, 1, 2))
	add("class index past the dictionary", "class index 3", classLabel([]int{1, 2, 3}, 0, 1, 3))
	add("unused class dictionary row", "class dictionary row 1 of 2 is used by no id", classLabel([]int{1, 2}, 0, 0))
	add("class dictionary rows out of first-use order", "class dictionary row 1 used before row 0", classLabel([]int{1, 2}, 1, 0))
	add("duplicate class dictionary id", "", classLabel([]int{2, 2}, 0, 1))

	nodeLabel := func(width int, nodes []uint64, ni ...uint64) *bits.Writer {
		return dictTable([]int{1, 2, 3}[:len(ni)], width, nodes, []uint64{0, 1, 2}[:len(ni)], ni)
	}
	canonical("a three-id node dictionary used in order", nodeLabel(canon, three, 0, 1, 2))
	canonical("a node dictionary used out of order", nodeLabel(canon, two, 1, 0))
	add("node index past the dictionary", "node index 3", nodeLabel(canon, three, 0, 1, 3))
	add("unused node dictionary row", "node dictionary row 1 of 2 is used by no id", nodeLabel(canon, two, 0))
	add("node dictionary not ascending", "node dictionary id 1 follows id 2", nodeLabel(2, []uint64{2, 1}, 0, 1))
	add("duplicate node dictionary id", "node dictionary id 2 follows id 2", nodeLabel(2, []uint64{2, 2}, 0, 1))

	// Class and node dictionary sizes far past the bits that follow.
	w = ownEntry()
	refWriteIDDict(w, nil) // empty vertex dictionary
	w.WriteUvarint(1 << 40)
	w.WriteUint(0, 64)
	add("huge class dictionary", "class dictionary of", w)

	w = ownEntry()
	refWriteIDDict(w, nil) // empty vertex dictionary
	w.WriteUvarint(0)      // empty class dictionary
	w.WriteBit(false)      // fixed width
	w.WriteUvarint(1 << 40)
	w.WriteUvarint(1)
	w.WriteUint(0, 64)
	add("huge node dictionary", "node dictionary of", w)
	return out
}

// TestMinEntryBits pins the row-count bound's divisor: the smallest entry
// the grammar admits takes exactly minEntryBits bits.
func TestMinEntryBits(t *testing.T) {
	var w bits.Writer
	w.WriteUint(uint64(lanewidth.TNode), 3)
	w.WriteUvarint(0) // no lanes
	w.WriteBit(false) // not a member
	w.WriteUvarint(0) // no path ids
	w.WriteUvarint(0) // LaneI
	w.WriteUvarint(0) // LaneJ
	for range 4 {
		w.WriteBit(false) // BridgeReal, no operands, no root member
	}
	// The class index and the node index, each into a one-row
	// dictionary, take no bits.
	if w.Bits() != minEntryBits {
		t.Fatalf("the smallest entry takes %d bits, minEntryBits is %d", w.Bits(), minEntryBits)
	}
	d := Decoder{cdict: []uint64{1}, ndict: []uint64{0}}
	d.nRows.reset(1)
	r := bits.NewReader(w.Bytes(), w.Bits())
	if err := d.parseShape(r, &Shape{NodeSummary: new(NodeSummary)}); err != nil || r.Pos() != minEntryBits {
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
// fields, the entry table and the vertex-id, class-id and node-id
// dictionaries: an id width above 64, an id width wider than the widest id
// it carries (a second encoding of the same ids), a collision rank whose id
// does not fit an int, a row or index past its table or dictionary, a row
// no certificate or dictionary id no occurrence uses, table or class rows
// used out of order, a vertex or node dictionary that is not strictly
// ascending, gap-coded ids past 2⁶⁴−1, a row count or dictionary size the
// remaining bits (or, for a fixed-width dictionary, its width) cannot hold,
// and a repeated row or class id or a dictionary in its longer coding
// (which decode and fail the re-encode check) are each rejected — without
// a panic, and without an allocation sized by the lying field.
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
			own.Path = append(own.Path, &NodeEntry{Shape: &Shape{NodeSummary: &NodeSummary{NodeID: i + 1, Kind: lanewidth.TNode},
				ParentID: -1, PathIDs: []uint64{uint64(i)}, VInputs: []int{0}}, Classes: []int{0}})
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

// keyBits returns the size of an entry's Key: the entry written as a
// one-row table, its own dictionaries included.
func keyBits(e *NodeEntry) int {
	e.Key()
	return e.cache.nbits
}

// TestVertexDictionaryWritesEachIDOnce pins the vertex-id dictionary: an
// entry whose path names d distinct vertices, each twice, writes each id
// once, in its dictionary's shorter coding, and every occurrence as a
// bitlen(d−1)-bit index — whether the
// dictionary is small enough for the stack index or large enough to grow
// it — and decodes back to its own bits. A second row naming the same
// vertices adds its indices and no dictionary id.
func TestVertexDictionaryWritesEachIDOnce(t *testing.T) {
	for _, d := range []int{3, linearRows, 3 * linearRows} {
		var ids []uint64
		for i := range 2 * d {
			ids = append(ids, uint64(1<<10+i%d))
		}
		entry := &NodeEntry{Shape: &Shape{NodeSummary: &NodeSummary{NodeID: 1, Kind: lanewidth.PNode}, ParentID: -1, PathIDs: ids,
			RealBits: make([]bool, len(ids)-1), VInputs: make([]int, len(ids))}, Classes: []int{0}}
		plain := &NodeEntry{Shape: &Shape{NodeSummary: &NodeSummary{NodeID: 1, Kind: lanewidth.PNode}, ParentID: -1,
			RealBits: entry.RealBits[:0], VInputs: entry.VInputs}, Classes: []int{0}}
		// Against an entry with the same fields but no vertex ids, the
		// path costs its dictionary (d ids over none) and 2d indices, plus
		// its longer length and real bits.
		dict := func(ids ...uint64) int { return min(refIDDictBits(ids)) }
		want := keyBits(plain) - dict() - bits.UvarintLen(0) +
			dict(ids[:d]...) + 2*d*rowWidth(d) +
			bits.UvarintLen(uint64(len(ids))) + len(ids) - 1
		if got := keyBits(entry); got != want {
			t.Fatalf("d=%d: the entry takes %d bits, want %d", d, got, want)
		}
		el := &EdgeLabel{Own: &CEdgeLabel{Path: []*NodeEntry{entry}}}
		data, nbits := EncodeLabel(el)
		if err := decodeCanonical(new(Decoder), data, nbits); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		twin := entry.clone()
		twin.NodeID = 2
		two := &EdgeLabel{Own: &CEdgeLabel{Path: []*NodeEntry{entry, twin}}}
		// The twin's fields are its Key less its own dictionaries (its d
		// vertex ids, its class, its node id 2). Beside them the second
		// row grows the node dictionary from {1} to {1, 2}, gives both
		// rows' node indices a bit, and adds a row to the table count, the
		// certificate's path length and its 1-bit row indices.
		g := bits.UvarintLen
		twinFields := keyBits(twin) - dict(ids[:d]...) -
			(g(1) + algebra.ClassHashBits + g(0)) - dict(2)
		nodeDict := dict(1, 2) - dict(1)
		if extra, want := two.Bits()-nbits, twinFields+nodeDict+2+2*(g(2)-g(1))+2; extra != want {
			t.Fatalf("d=%d: a second row naming the same ids adds %d bits, want %d", d, extra, want)
		}
		data, nbits = EncodeLabel(two)
		if err := decodeCanonical(new(Decoder), data, nbits); err != nil {
			t.Fatalf("d=%d, two rows: %v", d, err)
		}
	}
}
