package certify

import (
	"encoding/binary"
	"errors"
	mathbits "math/bits"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bits"
)

// blobWriter assembles raw certificate wire bytes for hostile-input tests,
// finishing with a valid CRC trailer so every structural check past the
// checksum is reachable.
type blobWriter struct{ b []byte }

func newBlobWriter() *blobWriter {
	return &blobWriter{b: append([]byte(certMagic), certVersion)}
}

func (w *blobWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.b = append(w.b, buf[:n]...)
}

func (w *blobWriter) raw(p []byte) { w.b = append(w.b, p...) }

// header writes the lane budget, n, m and a dummy fingerprint.
func (w *blobWriter) header(lanes, n, m uint64) {
	w.uvarint(lanes)
	w.uvarint(n)
	w.uvarint(m)
	w.raw(make([]byte, 8))
}

func (w *blobWriter) finish() []byte {
	out := append([]byte(nil), w.b...)
	out = append(out, 0, 0, 0, 0)
	fixCRC(out)
	return out
}

// hostileBlobs builds CRC-valid blobs whose size fields lie: declared
// counts vastly exceeding the bytes that follow. They double as fuzz seeds.
func hostileBlobs() map[string][]byte {
	out := map[string][]byte{}

	// One property declaring 2²⁶ edges backed by zero bytes of table. Before
	// decode capped declared sizes against the remaining buffer, the
	// labeling map's size hint alone reserved gigabytes.
	w := newBlobWriter()
	w.header(5, 16, maxCertEdges)
	w.uvarint(1) // property count
	w.uvarint(uint64(len("bipartite")))
	w.raw([]byte("bipartite"))
	w.uvarint(maxCertEdges) // edge count, then nothing
	out["huge edge table, empty body"] = w.finish()

	// Maximum property count with a near-empty body.
	w = newBlobWriter()
	w.header(5, 16, 0)
	w.uvarint(maxCertProps)
	w.raw([]byte{0x01})
	out["huge property count, empty body"] = w.finish()

	// Huge name length against a tiny remainder.
	w = newBlobWriter()
	w.header(5, 16, 0)
	w.uvarint(1)
	w.uvarint(maxCertNameLen)
	w.raw([]byte("ab"))
	out["huge name length"] = w.finish()

	// Label bit count claiming 2³⁰ bits backed by two bytes.
	w = newBlobWriter()
	w.header(5, 16, 1)
	w.uvarint(1)
	w.uvarint(uint64(len("acyclic")))
	w.raw([]byte("acyclic"))
	w.uvarint(1) // edge count
	w.uvarint(0) // u
	w.uvarint(1) // v
	w.uvarint(maxLabelBits)
	w.raw([]byte{0xFF, 0xFF})
	out["huge label bit count"] = w.finish()

	// Vertex count over the plausibility cap.
	w = newBlobWriter()
	w.header(5, maxCertVertices+1, 0)
	w.uvarint(1)
	out["implausible vertex count"] = w.finish()

	// Edge count over the plausibility cap.
	w = newBlobWriter()
	w.header(5, 16, maxCertEdges+1)
	w.uvarint(1)
	out["implausible edge count"] = w.finish()

	// Label payloads whose fixed-width fields lie, each on the one edge of
	// a CRC-valid single-property certificate.
	for name, payload := range hostileLabelPayloads() {
		out[name] = oneLabelBlob(payload.w)
	}
	return out
}

// oneLabelBlob returns a CRC-valid single-property certificate whose one
// edge carries the given label bits.
func oneLabelBlob(label *bits.Writer) []byte {
	w := newBlobWriter()
	w.header(5, 16, 1)
	w.uvarint(1)
	w.uvarint(uint64(len("bipartite")))
	w.raw([]byte("bipartite"))
	w.uvarint(1) // edge count
	w.uvarint(0) // u
	w.uvarint(1) // v
	w.uvarint(uint64(label.Bits()))
	w.raw(label.Bytes())
	return w.finish()
}

// hostileLabelPayload is a label bit stream whose width, rank, entry
// table or dictionary lies, and the text its rejection must carry.
type hostileLabelPayload struct {
	w    *bits.Writer
	want string
}

// writeIDDict writes a vertex-id or node-id dictionary: its size, the given
// width, then each id in that width.
func writeIDDict(w *bits.Writer, width int, ids []uint64) {
	w.WriteUvarint(uint64(len(ids)))
	w.WriteUvarint(uint64(width))
	for _, id := range ids {
		w.WriteUint(id, width)
	}
}

// widthOf returns the bit length of the widest id.
func widthOf(ids []uint64) int {
	width := 0
	for _, id := range ids {
		width = max(width, mathbits.Len64(id))
	}
	return width
}

// writeDicts writes a label's dictionaries, each id list in its widest
// id's width: the vertex ids, the class ids (collision rank 0), then the
// node ids.
func writeDicts(w *bits.Writer, vertex []uint64, classes []uint64, nodes []uint64) {
	writeIDDict(w, widthOf(vertex), vertex)
	w.WriteUvarint(uint64(len(classes)))
	for _, c := range classes {
		w.WriteUint(c, 16)
		w.WriteUvarint(0) // collision rank
	}
	writeIDDict(w, widthOf(nodes), nodes)
}

// indexWidth returns the width of an index into a dictionary of n ids.
func indexWidth(n int) int { return mathbits.Len(uint(max(n, 1) - 1)) }

// writeTinyEntry writes an entry of the smallest shape, no ids but its node
// id and its class, as the given indices into node and class dictionaries
// of the given sizes.
func writeTinyEntry(w *bits.Writer, nodes, node, classes, class int) {
	writePathEntry(w, nodes, node, classes, class, 0)
}

// writePathEntry writes an entry whose only vertex ids are its path ids:
// its fixed fields, then its index block — one path id per index in rows,
// each in the width of an index into a dictionary of dict ids, then its
// class and node id as the given indices into class and node dictionaries
// of the given sizes.
func writePathEntry(w *bits.Writer, nodes, node, classes, class, dict int, rows ...uint64) {
	w.WriteUint(0, 3) // kind
	w.WriteUvarint(0) // lanes
	w.WriteBit(false) // not a tree member
	w.WriteUvarint(uint64(len(rows)))
	for range max(len(rows)-1, 0) {
		w.WriteBit(false) // a virtual path edge
	}
	for range rows {
		w.WriteUvarint(0) // the path vertex's input
	}
	w.WriteUvarint(0) // LaneI
	w.WriteUvarint(0) // LaneJ
	for range 4 {
		w.WriteBit(false) // BridgeReal, no operands, no root member
	}
	for _, r := range rows {
		w.WriteUint(r, indexWidth(dict))
	}
	w.WriteUint(uint64(class), indexWidth(classes))
	w.WriteUint(uint64(node), indexWidth(nodes))
}

// ownLabel ends a label after its entry table: an own certificate whose
// path is the given rows, each in rw bits, and no embedding entries or
// pointing label.
func ownLabel(w *bits.Writer, rw int, rows ...uint64) *bits.Writer {
	w.WriteBit(true)
	w.WriteUvarint(uint64(len(rows)))
	for _, r := range rows {
		w.WriteUint(r, rw)
	}
	w.WriteUvarint(0) // owner position
	w.WriteUvarint(0) // no embedding entries
	w.WriteBit(false) // no pointing label
	return w
}

// tableLabel writes a label whose entry table holds a tiny entry per node
// id, its class the one class 7, and whose own certificate's path is the
// given rows, each in rw bits.
func tableLabel(nodeIDs []uint64, rw int, rows ...uint64) *bits.Writer {
	var nodes []uint64
	for _, id := range nodeIDs {
		if !slices.Contains(nodes, id) {
			nodes = append(nodes, id)
		}
	}
	w := new(bits.Writer)
	w.WriteUvarint(uint64(len(nodeIDs)))
	writeDicts(w, nil, []uint64{7}, nodes)
	for _, id := range nodeIDs {
		writeTinyEntry(w, len(nodes), slices.Index(nodes, id), 1, 0)
	}
	return ownLabel(w, rw, rows...)
}

// dictLabel writes a label whose one entry's path ids are the given
// indices into a vertex dictionary of the given ids.
func dictLabel(dict []uint64, rows ...uint64) *bits.Writer {
	w := new(bits.Writer)
	w.WriteUvarint(1) // table rows
	writeDicts(w, dict, []uint64{7}, []uint64{1})
	writePathEntry(w, 1, 0, 1, 0, len(dict), rows...)
	return ownLabel(w, 0, 0)
}

// dictTable writes a label whose table holds one tiny entry per index
// pair, its node and class the given indices into node and class
// dictionaries of the given ids, the rows used in order.
func dictTable(nodes, classes []uint64, node, class []int) *bits.Writer {
	w := new(bits.Writer)
	w.WriteUvarint(uint64(len(node)))
	writeDicts(w, nil, classes, nodes)
	var rows []uint64
	for i := range node {
		writeTinyEntry(w, len(nodes), node[i], len(classes), class[i])
		rows = append(rows, uint64(i))
	}
	return ownLabel(w, indexWidth(len(node)), rows...)
}

// hostileLabelPayloads returns label bit streams with an id width of 65
// or more, an id width wider than the ids it carries, a class collision
// rank far past any id an int can hold or one past the cap, entry tables
// that lie — a row index past the table, an unused row, rows used out of
// table order, a repeated row, and a row count far past the bits that
// follow — and vertex, class and node dictionaries that lie the same five
// ways, plus a width-0 dictionary declaring two ids.
func hostileLabelPayloads() map[string]hostileLabelPayload {
	out := map[string]hostileLabelPayload{}

	// The label's own ids are indices into the vertex dictionary, so
	// their width is the dictionary's: a table-less label whose
	// dictionary declares a width of 65.
	w := new(bits.Writer)
	w.WriteUvarint(0) // empty entry table
	w.WriteUvarint(3) // vertex dictionary size
	w.WriteUvarint(65)
	out["label id width 65"] = hostileLabelPayload{w, "width"}

	// A pointing label whose ids need 2 bits, in a dictionary of width 9.
	w = new(bits.Writer)
	w.WriteUvarint(0)
	writeIDDict(w, 9, []uint64{1, 2})
	w.WriteUvarint(0) // empty class dictionary
	writeIDDict(w, 0, nil)
	w.WriteBit(false) // no own certificate
	w.WriteUvarint(0) // no embedding entries
	w.WriteBit(true)
	for _, i := range []uint64{0, 0, 1} {
		w.WriteUint(i, 1)
	}
	w.WriteUvarint(0)
	w.WriteUvarint(1)
	out["label id width over widest id"] = hostileLabelPayload{w, "width"}

	// A table of one entry whose class dictionary holds a collision rank
	// of 2⁶², or one past the cap.
	for name, rank := range map[string]uint64{
		"huge class collision rank":         1 << 62,
		"class collision rank past the cap": 1 << 47, // algebra.MaxClassRank + 1
	} {
		w = new(bits.Writer)
		w.WriteUvarint(1) // table rows
		writeIDDict(w, 0, nil)
		w.WriteUvarint(1)  // one class
		w.WriteUint(7, 16) // class hash
		w.WriteUvarint(rank)
		out[name] = hostileLabelPayload{w, "rank"}
	}

	w = new(bits.Writer)
	w.WriteUvarint(1)
	w.WriteUvarint(1)       // vertex dictionary size
	w.WriteUvarint(1 << 20) // vertex id width
	w.WriteUint(0, 64)      // room for one entry
	out["entry id width 2^20"] = hostileLabelPayload{w, "width"}

	// A node dictionary written wider than its widest id.
	w = new(bits.Writer)
	w.WriteUvarint(1)
	writeIDDict(w, 0, nil)
	w.WriteUvarint(1)
	w.WriteUint(7, 16)
	w.WriteUvarint(0)
	writeIDDict(w, 5, []uint64{1})
	writeTinyEntry(w, 1, 0, 1, 0)
	out["node id width over widest id"] = hostileLabelPayload{ownLabel(w, 0, 0), "width"}

	out["row index past the table"] = hostileLabelPayload{tableLabel([]uint64{1, 2, 3}, 2, 0, 1, 3), "row index 3"}
	out["unused table row"] = hostileLabelPayload{tableLabel([]uint64{1, 2}, 1, 0), "used by no certificate"}
	out["table rows out of first-use order"] = hostileLabelPayload{tableLabel([]uint64{1, 2}, 1, 1, 0), "used before row"}
	out["duplicate table row"] = hostileLabelPayload{tableLabel([]uint64{1, 1}, 1, 0, 1), "not canonically encoded"}

	w = new(bits.Writer)
	w.WriteUvarint(1 << 40) // table rows
	w.WriteUint(0, 64)
	out["huge table row count"] = hostileLabelPayload{w, "entry table of"}

	out["vertex index past the dictionary"] = hostileLabelPayload{dictLabel([]uint64{1, 2, 3}, 0, 1, 3), "vertex index 3"}
	out["unused dictionary row"] = hostileLabelPayload{dictLabel([]uint64{1, 2}, 0), "used by no id"}
	out["dictionary rows out of first-use order"] = hostileLabelPayload{dictLabel([]uint64{1, 2}, 1, 0), "used before row"}
	out["duplicate dictionary id"] = hostileLabelPayload{dictLabel([]uint64{2, 2}, 0, 1), "not canonically encoded"}

	one, two, three := []uint64{7}, []uint64{7, 8}, []uint64{7, 8, 9}
	nodes := []uint64{1, 2, 3}
	out["class index past the dictionary"] = hostileLabelPayload{dictTable(nodes, three, []int{0, 1, 2}, []int{0, 1, 3}), "class index 3"}
	out["unused class dictionary row"] = hostileLabelPayload{dictTable(nodes[:2], two, []int{0, 1}, []int{0, 0}), "class dictionary row 1 of 2 is used by no id"}
	out["class dictionary rows out of first-use order"] = hostileLabelPayload{dictTable(nodes[:2], two, []int{0, 1}, []int{1, 0}), "used before row"}
	out["duplicate class dictionary id"] = hostileLabelPayload{dictTable(nodes[:2], []uint64{8, 8}, []int{0, 1}, []int{0, 1}), "not canonically encoded"}
	out["node index past the dictionary"] = hostileLabelPayload{dictTable(nodes, three, []int{0, 1, 3}, []int{0, 1, 2}), "node index 3"}
	out["unused node dictionary row"] = hostileLabelPayload{dictTable(nodes[:2], one, []int{0}, []int{0}), "node dictionary row 1 of 2 is used by no id"}
	out["node dictionary rows out of first-use order"] = hostileLabelPayload{dictTable(nodes[:2], two, []int{1, 0}, []int{0, 1}), "used before row"}
	out["duplicate node dictionary id"] = hostileLabelPayload{dictTable([]uint64{2, 2}, two, []int{0, 1}, []int{0, 1}), "not canonically encoded"}

	// Dictionary sizes past the bits that follow, and past the ids a
	// width of 0 can hold.
	for name, d := range map[string]struct{ width, size uint64 }{
		"huge dictionary":               {40, 1 << 40},
		"width-0 dictionary of two ids": {0, 2},
	} {
		w = new(bits.Writer)
		w.WriteUvarint(1) // table rows
		w.WriteUvarint(d.size)
		w.WriteUvarint(d.width)
		w.WriteUint(0, 64)
		out[name] = hostileLabelPayload{w, "vertex dictionary of"}
	}
	w = new(bits.Writer)
	w.WriteUvarint(1)
	writeIDDict(w, 0, nil)
	w.WriteUvarint(1 << 40) // class dictionary size
	w.WriteUint(0, 64)
	out["huge class dictionary"] = hostileLabelPayload{w, "class dictionary of"}

	w = new(bits.Writer)
	w.WriteUvarint(1)
	writeIDDict(w, 0, nil)
	w.WriteUvarint(0)
	w.WriteUvarint(1 << 40) // node dictionary size
	w.WriteUvarint(1)
	w.WriteUint(0, 64)
	out["huge node dictionary"] = hostileLabelPayload{w, "node dictionary of"}
	return out
}

// TestHostileHeadersRejected is the table test for attacker-controlled size
// fields: every declared count must be capped against the remaining buffer
// (or the plausibility bounds) and rejected as ErrBadCertificate.
func TestHostileHeadersRejected(t *testing.T) {
	for name, blob := range hostileBlobs() {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			var c Certificate
			err := c.UnmarshalBinary(blob)
			if !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("hostile blob accepted or misclassified: %v", err)
			}
		})
	}
}

// TestHostileHeaderAllocationBounded pins the actual resource-exhaustion
// fix: decoding a blob that declares a 2²⁶-edge labeling over an empty body
// must allocate a trivial amount of memory, not size-hint a map by the
// declared count. (Before the fix this single decode reserved >1 GiB.)
func TestHostileHeaderAllocationBounded(t *testing.T) {
	blob := hostileBlobs()["huge edge table, empty body"]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		var c Certificate
		if err := c.UnmarshalBinary(blob); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("hostile blob accepted: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("8 hostile decodes allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestHostileLabelFieldsRejected pins that each lying width, rank or entry
// table field is what rejects its certificate — the label decoder names the
// field, or the re-encode check rejects a repeated row — and that the
// rejection allocates a bounded amount, whatever the field declares.
func TestHostileLabelFieldsRejected(t *testing.T) {
	// The honest twin of the table cases decodes: they fail by their lie.
	var c Certificate
	if err := c.UnmarshalBinary(oneLabelBlob(tableLabel([]uint64{1, 2}, 1, 0, 1))); err != nil {
		t.Fatalf("a two-row table used in order is rejected: %v", err)
	}
	if err := c.UnmarshalBinary(oneLabelBlob(dictLabel([]uint64{1, 2, 3}, 0, 1, 2))); err != nil {
		t.Fatalf("a three-id dictionary used in order is rejected: %v", err)
	}
	blobs := hostileBlobs()
	for name, payload := range hostileLabelPayloads() {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			blob := blobs[name]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var c Certificate
			err := c.UnmarshalBinary(blob)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadCertificate) || !strings.Contains(err.Error(), "label for edge") ||
				!strings.Contains(err.Error(), payload.want) {
				t.Fatalf("want a rejection of the label naming %q, got %v", payload.want, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("rejecting the blob allocated %d bytes", grew)
			}
		})
	}
}
