package core

import (
	"bytes"
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

// hostileLabels returns label streams whose width or rank fields lie, each
// with the error text its rejection must carry. Every other field is
// honest, so the named check is the one that fires.
func hostileLabels(t *testing.T) map[string]struct {
	data  []byte
	nbits int
	want  string
} {
	t.Helper()
	out := map[string]struct {
		data  []byte
		nbits int
		want  string
	}{}
	add := func(name, want string, w *bits.Writer) {
		out[name] = struct {
			data  []byte
			nbits int
			want  string
		}{w.Bytes(), w.Bits(), want}
	}
	// ownEntry starts a label whose own certificate is the single entry
	// that follows.
	ownEntry := func() *bits.Writer {
		var w bits.Writer
		w.WriteBit(true)
		w.WriteUvarint(1)
		return &w
	}

	var w bits.Writer
	w.WriteBit(false)
	w.WriteUvarint(65)
	add("label width 65", "exceeds 64", &w)

	w = bits.Writer{}
	w.WriteBit(false)
	w.WriteUvarint(1 << 40)
	add("label width 2^40", "exceeds 64", &w)

	// A pointing label whose ids need 2 bits, written in 8.
	w = bits.Writer{}
	w.WriteBit(false)
	w.WriteUvarint(8)
	w.WriteUvarint(0)
	w.WriteBit(true)
	for _, id := range []uint64{1, 1, 2} {
		w.WriteUint(id, 8)
	}
	w.WriteUvarint(0)
	w.WriteUvarint(1)
	add("label width over widest id", "width", &w)

	ew := ownEntry()
	ew.WriteUvarint(65)
	add("entry vertex width 65", "exceeds 64", ew)

	ew = ownEntry()
	ew.WriteUvarint(0)
	ew.WriteUvarint(65)
	add("entry node width 65", "exceeds 64", ew)

	// A label whose own certificate is one minimal entry with one node id
	// (1) and one path vertex id (1), its ids written in the given widths;
	// the owner position and an empty rest of the label follow.
	idEntry := func(vertexWidth, nodeWidth int) *bits.Writer {
		w := ownEntry()
		w.WriteUvarint(uint64(vertexWidth))
		w.WriteUvarint(uint64(nodeWidth))
		w.WriteUint(1, nodeWidth)
		w.WriteUint(uint64(lanewidth.TNode), 3)
		w.WriteUvarint(0) // no lanes, so no lane-aligned ids
		w.WriteUint(1, algebra.ClassHashBits)
		w.WriteUvarint(0)
		w.WriteBit(false) // not a tree member
		w.WriteUvarint(1)
		w.WriteUint(1, vertexWidth)
		w.WriteUvarint(0) // the path vertex's input
		w.WriteUvarint(0) // LaneI
		w.WriteUvarint(0) // LaneJ
		w.WriteBit(false) // BridgeReal
		w.WriteBit(false) // no left operand
		w.WriteBit(false) // no right operand
		w.WriteBit(false) // no root member
		w.WriteUvarint(0) // owner position
		w.WriteUvarint(0) // label id width
		w.WriteUvarint(0) // no embedding entries
		w.WriteBit(false) // no pointing label
		return w
	}
	ok := idEntry(1, 1)
	if _, err := DecodeLabel(ok.Bytes(), ok.Bits()); err != nil {
		t.Fatalf("the minimal entry in its own widths does not decode: %v", err)
	}
	add("entry vertex width over widest id", "entry vertex id width", idEntry(2, 1))
	add("entry node width 64 over widest id", "entry node id width", idEntry(1, 64))

	// A class id with a collision rank far above any id an int can hold:
	// an entry with no ids, whose class field is the first thing after
	// its lanes.
	ew = ownEntry()
	ew.WriteUvarint(0)
	ew.WriteUvarint(0)
	ew.WriteUint(uint64(lanewidth.TNode), 3)
	ew.WriteUvarint(0)
	ew.WriteUint(0, algebra.ClassHashBits)
	ew.WriteUvarint(1 << 62)
	add("huge collision rank", "collision rank", ew)

	ew = ownEntry()
	ew.WriteUvarint(0)
	ew.WriteUvarint(0)
	ew.WriteUint(uint64(lanewidth.TNode), 3)
	ew.WriteUvarint(0)
	ew.WriteUint(0, algebra.ClassHashBits)
	ew.WriteUvarint(algebra.MaxClassRank + 1)
	add("collision rank one past the cap", "collision rank", ew)
	return out
}

// TestDecodeRejectsHostileWidthsAndRanks pins the fixed-width fields'
// checks: an id width above 64, an id width wider than the widest id it
// carries (a second encoding of the same ids), and a collision rank whose
// id does not fit an int are each rejected — without a panic, and without
// an allocation sized by the lying field.
func TestDecodeRejectsHostileWidthsAndRanks(t *testing.T) {
	for name, h := range hostileLabels(t) {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			_, err := DecodeLabel(h.data, h.nbits)
			if err == nil || !strings.Contains(err.Error(), h.want) {
				t.Fatalf("decode error %v, want one naming %q", err, h.want)
			}
			var d Decoder
			d.DecodeLabel(h.data, h.nbits) // the Decoder's tables
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				if _, err := d.DecodeLabel(h.data, h.nbits); err == nil {
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
