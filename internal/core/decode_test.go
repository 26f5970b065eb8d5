package core

import (
	"bytes"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/graph"
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
