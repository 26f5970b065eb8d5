package certify

import (
	"encoding/binary"
	"errors"
	"runtime"
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
		w = newBlobWriter()
		w.header(5, 16, 1)
		w.uvarint(1)
		w.uvarint(uint64(len("bipartite")))
		w.raw([]byte("bipartite"))
		w.uvarint(1) // edge count
		w.uvarint(0) // u
		w.uvarint(1) // v
		w.uvarint(uint64(payload.Bits()))
		w.raw(payload.Bytes())
		out[name] = w.finish()
	}
	return out
}

// hostileLabelPayloads returns label bit streams with an id width of 65
// or more, an id width wider than the ids it carries, and a class
// collision rank far past any id an int can hold.
func hostileLabelPayloads() map[string]*bits.Writer {
	out := map[string]*bits.Writer{}

	var w bits.Writer
	w.WriteBit(false) // no own certificate
	w.WriteUvarint(65)
	out["label id width 65"] = &w

	// A pointing label whose ids need 2 bits, written in 9.
	w2 := new(bits.Writer)
	w2.WriteBit(false)
	w2.WriteUvarint(9)
	w2.WriteUvarint(0) // no embedding entries
	w2.WriteBit(true)
	for _, id := range []uint64{1, 1, 2} {
		w2.WriteUint(id, 9)
	}
	w2.WriteUvarint(0)
	w2.WriteUvarint(1)
	out["label id width over widest id"] = w2

	// An own certificate of one entry with no ids, whose class field
	// carries a collision rank of 2⁶².
	w3 := new(bits.Writer)
	w3.WriteBit(true)
	w3.WriteUvarint(1)       // path length
	w3.WriteUvarint(0)       // vertex id width
	w3.WriteUvarint(0)       // node id width
	w3.WriteUint(0, 3)       // kind
	w3.WriteUvarint(0)       // lanes
	w3.WriteUint(7, 16)      // class hash
	w3.WriteUvarint(1 << 62) // collision rank
	out["huge class collision rank"] = w3

	w4 := new(bits.Writer)
	w4.WriteBit(true)
	w4.WriteUvarint(1)
	w4.WriteUvarint(1 << 20) // vertex id width
	out["entry id width 2^20"] = w4
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

// TestHostileLabelFieldsRejected pins that each lying width or rank field
// is what rejects its certificate — the label decoder names the field —
// and that the rejection allocates a bounded amount, whatever the field
// declares.
func TestHostileLabelFieldsRejected(t *testing.T) {
	blobs := hostileBlobs()
	for name := range hostileLabelPayloads() {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			blob := blobs[name]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var c Certificate
			err := c.UnmarshalBinary(blob)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadCertificate) || !strings.Contains(err.Error(), "label for edge") ||
				!(strings.Contains(err.Error(), "width") || strings.Contains(err.Error(), "rank")) {
				t.Fatalf("want a width or rank rejection of the label, got %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("rejecting the blob allocated %d bytes", grew)
			}
		})
	}
}
