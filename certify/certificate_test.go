package certify

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
)

// fixCRC rewrites the blob's CRC32 trailer to match its body, so tests can
// probe checks past the checksum.
func fixCRC(blob []byte) {
	binary.BigEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
}

// honestBlob proves a small two-property certificate and marshals it.
func honestBlob(t testing.TB) []byte {
	t.Helper()
	props, err := PropertiesByName("bipartite", "acyclic")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	crt, _, err := c.ProveBatch(context.Background(), Caterpillar(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCertificateTruncationSweep rejects every strict prefix of an honest
// blob.
func TestCertificateTruncationSweep(t *testing.T) {
	blob := honestBlob(t)
	for cut := 0; cut < len(blob); cut++ {
		var c Certificate
		if err := c.UnmarshalBinary(blob[:cut]); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("truncation to %d of %d bytes: err=%v, want ErrBadCertificate", cut, len(blob), err)
		}
	}
}

// TestCertificateBitFlipSweep rejects every single-bit corruption of an
// honest blob (the CRC32 trailer catches all of them; flips inside the
// trailer mismatch the body).
func TestCertificateBitFlipSweep(t *testing.T) {
	blob := honestBlob(t)
	for i := 0; i < len(blob); i++ {
		for b := 0; b < 8; b++ {
			mutated := append([]byte(nil), blob...)
			mutated[i] ^= 1 << b
			var c Certificate
			if err := c.UnmarshalBinary(mutated); !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("bit flip at byte %d bit %d accepted: err=%v", i, b, err)
			}
		}
	}
}

// TestCertificateRoundTripIdentity pins marshal → unmarshal → re-marshal
// byte identity.
func TestCertificateRoundTripIdentity(t *testing.T) {
	blob := honestBlob(t)
	var c Certificate
	if err := c.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	again, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("re-marshal differs")
	}
	// And once more through a second generation.
	var c2 Certificate
	if err := c2.UnmarshalBinary(again); err != nil {
		t.Fatal(err)
	}
	third, err := c2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(third) != string(blob) {
		t.Fatal("third-generation marshal differs")
	}
}

// TestNonCanonicalCopyRejectedAfterInterning pins that decoding interns by
// raw bits, not by value: a later copy of a node entry that decodes to the
// same value as an earlier, already interned copy, but with different bits,
// is still rejected as non-canonical. The forged copy is a non-member entry
// written as a member whose parent id, 2^64−1 in 64 bits, decodes to the
// non-member parent −1; the decoder reads and drops the member fields that
// follow it.
func TestNonCanonicalCopyRejectedAfterInterning(t *testing.T) {
	var honest Certificate
	if err := honest.UnmarshalBinary(honestBlob(t)); err != nil {
		t.Fatal(err)
	}
	name := honest.props[0]
	l := honest.labelings[name]
	target, at := repeatedNonMember(t, l)
	// Two copies whose entry claims parent id −2 or −3: both write the
	// member fields and every node id in 64 bits, and their encodings
	// differ only in the parent id's two low bits. Or-ing them writes
	// parent id 2^64−1.
	withParent := func(parent int) *core.EdgeLabel {
		el := l.Edges[target].Clone()
		en := el.Own.Path[at]
		en.ParentID, en.MergedOutIDs, en.Children = parent, nil, nil
		en.Classes = slices.Insert(en.Classes, 1, 0) // the member's merged class id 0
		return el
	}
	data, nbits := core.EncodeLabel(withParent(-2))
	other, otherBits := core.EncodeLabel(withParent(-3))
	if otherBits != nbits {
		t.Fatalf("parent ids −2 and −3 encode to %d and %d bits", nbits, otherBits)
	}
	blob := marshalWithLabel(t, &honest, name, target, withParent(-2))
	pos := bytes.Index(blob, data)
	if pos < 0 {
		t.Fatal("the forged label's bytes are not in the marshaled blob")
	}
	for i := range data {
		data[i] |= other[i]
	}
	if dec, err := core.DecodeLabel(data, nbits); err != nil || dec.Key() != l.Edges[target].Key() {
		t.Fatalf("the forged label must decode to the honest value (err %v)", err)
	}
	copy(blob[pos:], data)
	fixCRC(blob)

	var c Certificate
	if err := c.UnmarshalBinary(blob); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("non-canonical second copy of an interned entry accepted: err=%v", err)
	}
}

// TestOverWideCopyRejectedAfterInterning forges a second copy of an
// interned entry whose node ids are written one width wider than its
// widest node id needs, every value the honest one. The forged copy is the
// hierarchy root's entry (every certificate path starts there). The
// decoder's width check rejects it, so the certificate fails.
func TestOverWideCopyRejectedAfterInterning(t *testing.T) {
	var honest Certificate
	if err := honest.UnmarshalBinary(honestBlob(t)); err != nil {
		t.Fatal(err)
	}
	name := honest.props[0]
	l := honest.labelings[name]
	// Find, in wire order, a label whose own path repeats the non-member
	// root entry an earlier label already carried.
	seen := false
	target := graph.Edge{U: -1}
	for _, e := range sortedEdges(l) {
		own := l.Edges[e].Own
		if own == nil || own.Path[0].ParentID != -1 {
			continue
		}
		if seen {
			target = e
			break
		}
		seen = true
	}
	if target.U < 0 {
		t.Fatal("no repeated non-member root entry in the honest labeling")
	}
	// Encode a copy whose root node id has bit 62 set, above every node id
	// of the label, then clear that bit: the label's node ids are now
	// written wider than its widest node id needs, and every value is the
	// honest one.
	forged := l.Edges[target].Clone()
	root := forged.Own.Path[0]
	root.NodeID |= 1 << 62
	data, nbits := core.EncodeLabel(forged)
	blob := marshalWithLabel(t, &honest, name, target, forged)
	at := bytes.Index(blob, data)
	if at < 0 {
		t.Fatal("the forged label's bytes are not in the marshaled blob")
	}
	r := bits.NewReader(data, nbits)
	// The root entry is the first row of the label's entry table, so its
	// node id is the first id of the node dictionary, which follows the
	// vertex and class dictionaries.
	read := func(field string) uint64 {
		v, err := r.ReadUvarint()
		if err != nil {
			t.Fatalf("reading the %s: %v", field, err)
		}
		return v
	}
	read("table row count")
	vertices := read("vertex dictionary size")
	vertexWidth := read("vertex width")
	r.Seek(r.Pos() + int(vertices*vertexWidth))
	for range read("class dictionary size") {
		r.Seek(r.Pos() + 16)
		read("class collision rank")
	}
	read("node dictionary size")
	read("node width")
	data[r.Pos()/8] &^= 1 << uint(7-r.Pos()%8)
	if _, err := core.DecodeLabel(data, nbits); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("an over-wide node id width decoded, or failed for another reason: %v", err)
	}
	copy(blob[at:], data)
	fixCRC(blob)

	var c Certificate
	if err := c.UnmarshalBinary(blob); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("over-wide second copy of an interned entry accepted: err=%v", err)
	}
}

// repeatedNonMember finds, in wire order, a label whose own path repeats a
// non-member entry an earlier label already carried, and returns the edge
// and the entry's path position.
func repeatedNonMember(t *testing.T, l *core.Labeling) (graph.Edge, int) {
	t.Helper()
	seen := map[*core.NodeEntry]bool{}
	for _, e := range sortedEdges(l) {
		own := l.Edges[e].Own
		if own == nil {
			continue
		}
		for i, en := range own.Path {
			if seen[en] && en.ParentID == -1 {
				return e, i
			}
		}
		for _, en := range own.Path {
			seen[en] = true
		}
	}
	t.Fatal("no repeated non-member entry in the honest labeling")
	return graph.Edge{}, 0
}

// marshalWithLabel marshals a copy of the certificate in which one edge of
// one property carries the given label instead of its own.
func marshalWithLabel(t *testing.T, honest *Certificate, name string, e graph.Edge, el *core.EdgeLabel) []byte {
	t.Helper()
	labelings := make(map[string]*core.Labeling, len(honest.labelings))
	for p, hl := range honest.labelings {
		labelings[p] = hl
	}
	l := honest.labelings[name]
	swapped := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, len(l.Edges))}
	for k, v := range l.Edges {
		swapped.Edges[k] = v
	}
	swapped.Edges[e] = el
	labelings[name] = swapped
	bad := &Certificate{
		maxLanes:    honest.maxLanes,
		n:           honest.n,
		m:           honest.m,
		fingerprint: honest.fingerprint,
		props:       honest.props,
		labelings:   labelings,
	}
	blob, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDuplicateLaneRejected forges a node entry whose lane list repeats its
// first lane, with the ids of that lane repeated to match. Ids are aligned
// with lanes by position, so the decoder must refuse any lane list that is
// not strictly increasing; the repeated ids re-encode to the same bits, so
// the canonicality check alone would not catch it.
func TestDuplicateLaneRejected(t *testing.T) {
	var honest Certificate
	if err := honest.UnmarshalBinary(honestBlob(t)); err != nil {
		t.Fatal(err)
	}
	name := honest.props[0]
	target := sortedEdges(honest.labelings[name])[0]
	forged := honest.labelings[name].Edges[target].Clone()
	en := forged.Own.Path[0]
	dup := func(s []uint64) []uint64 {
		if s == nil {
			return nil
		}
		return append([]uint64{s[0]}, s...)
	}
	en.Lanes = append([]int{en.Lanes[0]}, en.Lanes...)
	en.InIDs, en.OutIDs, en.MergedOutIDs = dup(en.InIDs), dup(en.OutIDs), dup(en.MergedOutIDs)
	if _, err := core.DecodeLabel(core.EncodeLabel(forged)); err == nil {
		t.Fatal("label with a duplicated lane decoded")
	}
	var c Certificate
	if err := c.UnmarshalBinary(marshalWithLabel(t, &honest, name, target, forged)); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("duplicated lane accepted: err=%v", err)
	}
}

// TestMarshalAllocsIndependentOfSize pins that MarshalBinary encodes every
// label straight into one exactly sized buffer: its allocation count does
// not grow with the number of edges.
func TestMarshalAllocsIndependentOfSize(t *testing.T) {
	props, err := PropertiesByName("bipartite")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	allocs := make([]float64, 0, 2)
	for _, n := range []int{16, 512} {
		crt, _, err := c.ProveBatch(context.Background(), Path(n))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := crt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != cap(blob) {
			t.Fatalf("n=%d: %d bytes in a %d-byte buffer, want it sized exactly", n, len(blob), cap(blob))
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := crt.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[1] != allocs[0] || allocs[0] > 4 {
		t.Fatalf("MarshalBinary allocates %v times at 15 edges and %v at 511, want the same small count", allocs[0], allocs[1])
	}
}

func TestCertificateRejectsEmptyAndGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{},
		[]byte("PLSC"),
		[]byte("NOPE this is not a certificate at all, padding padding"),
		make([]byte, 64),
	} {
		var c Certificate
		if err := c.UnmarshalBinary(data); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("garbage accepted: %v", err)
		}
	}
}

// TestCertificateVersionPinned rejects a blob whose version byte was bumped
// (with the CRC recomputed, so only the version check can catch it).
func TestCertificateVersionPinned(t *testing.T) {
	blob := honestBlob(t)
	mutated := append([]byte(nil), blob...)
	mutated[4] = certVersion + 1
	fixCRC(mutated)
	var c Certificate
	if err := c.UnmarshalBinary(mutated); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestCertificateVersion1Rejected pins that the retired versions — 1
// (varint identifiers), 2 (certificates written in full) and 3 (every
// vertex-id occurrence written in full) — have no decoder: a blob
// declaring one fails on the version byte.
func TestCertificateVersion1Rejected(t *testing.T) {
	for v := byte(1); v < certVersion; v++ {
		blob := honestBlob(t)
		blob[4] = v
		fixCRC(blob)
		var c Certificate
		err := c.UnmarshalBinary(blob)
		if !errors.Is(err, ErrBadCertificate) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported format version %d", v)) {
			t.Fatalf("version %d blob: %v", v, err)
		}
	}
}

// TestCertificateTrailingBytesRejected rejects a blob with valid CRC over a
// body that has appended garbage.
func TestCertificateTrailingBytesRejected(t *testing.T) {
	blob := honestBlob(t)
	mutated := append(append([]byte(nil), blob[:len(blob)-4]...), 0xAB, 0xCD)
	mutated = append(mutated, 0, 0, 0, 0)
	fixCRC(mutated)
	var c Certificate
	if err := c.UnmarshalBinary(mutated); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

// TestConcurrentVerifyOnDecodedCertificate exercises the lazy scheme
// rebuild from several goroutines (the CI race step watches this).
func TestConcurrentVerifyOnDecodedCertificate(t *testing.T) {
	blob := honestBlob(t)
	var c Certificate
	if err := c.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	verifier, err := New()
	if err != nil {
		t.Fatal(err)
	}
	g := Caterpillar(4, 1)
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() { errs <- verifier.Verify(context.Background(), g, &c) }()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMarkOutOfRange pins that a bad marked vertex surfaces as an error
// from the consuming call instead of a panic deep in the pipeline.
func TestMarkOutOfRange(t *testing.T) {
	props, err := PropertiesByName("dominating")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{10, -1} {
		g := Path(10)
		g.Mark(v)
		if _, _, err := c.ProveBatch(context.Background(), g); err == nil {
			t.Fatalf("marked vertex %d accepted", v)
		}
	}
}
