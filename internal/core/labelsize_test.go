package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bits"
	"repro/internal/cert"
	"repro/internal/gen"
)

// worstLabelBits proves 3-colourability of the seed-1 width-2 interval
// graph on n vertices under 8 lanes and returns the largest label in bits.
func worstLabelBits(tb testing.TB, n int) int {
	tb.Helper()
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), n, 2)
	_, stats, err := prove(NewScheme(algebra.Colorable{Q: 3}, 8), cert.NewConfig(g), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return stats.MaxLabelBits
}

// TestLabelSizeSlope pins the growth of the worst label with n, the
// quantity the O(log n) bound is about. Identifiers are written in a
// fixed width per entry, and each entry writes each distinct vertex id
// once, so quadrupling n adds about two bits per distinct identifier:
// 114 bits to this label (178 when every vertex-id occurrence was written
// in full).
func TestLabelSizeSlope(t *testing.T) {
	small, large := worstLabelBits(t, 2048), worstLabelBits(t, 8192)
	t.Logf("worst label: %d bits at n=2048, %d bits at n=8192", small, large)
	if gap := large - small; gap > 150 {
		t.Fatalf("worst label grows by %d bits from n=2048 to n=8192, want ≤ 150", gap)
	}
}

// TestLabelSizeEntryTable pins the per-label entry table: a label writes
// each distinct node entry once, however many of its certificates carry
// it. Under version 2, which wrote every certificate's path in full, the
// worst label at n=8192 was 2632 bits; with the table it is 1883. The pin
// is 0.8× the version-2 size.
func TestLabelSizeEntryTable(t *testing.T) {
	const v2Bits = 2632
	if got := worstLabelBits(t, 8192); 5*got > 4*v2Bits {
		t.Fatalf("worst label at n=8192 is %d bits, want ≤ 0.8 × %d", got, v2Bits)
	}
}

// TestLabelSizeVertexDictionary pins the per-entry vertex-id dictionary:
// an entry writes each distinct vertex id once and every occurrence as an
// index into them. Under version 3, which wrote every occurrence in full,
// the worst label at n=8192 was 1883 bits; with the dictionary it is 1590.
// The pin is 0.9× the version-3 size.
func TestLabelSizeVertexDictionary(t *testing.T) {
	const v3Bits = 1883
	if got := worstLabelBits(t, 8192); 10*got > 9*v3Bits {
		t.Fatalf("worst label at n=8192 is %d bits, want ≤ 0.9 × %d", got, v3Bits)
	}
}

// splitFields names the parts labelSplit divides a label's bits into, in
// the order they are logged.
var splitFields = []string{
	"vertex ids", "vertex indices", "node ids", "class ids",
	"embedding and pointing", "id widths", "lane lists", "row indices", "rest",
}

// labelSplit accounts a label's bits by field, mirroring the encoder field
// by field: vertex ids (each entry's dictionary: its size and its ids),
// vertex indices (every vertex-id occurrence as a dictionary index), node
// ids, class ids, the label's own embedding and pointing fields, the
// gamma-coded id widths, lane lists, entry-table row indices, and the rest
// (counts, kinds, flags, real bits, inputs, owner positions). The parts sum
// to EdgeLabel.Bits exactly.
func labelSplit(l *EdgeLabel) map[string]int {
	s := map[string]int{}
	rows, _ := l.table(nil, nil)
	s["rest"] += bits.UvarintLen(uint64(len(rows))) + 1 // row count, own bit
	for _, e := range rows {
		entrySplit(s, e)
	}
	rw := rowWidth(len(rows))
	certSplit := func(c *CEdgeLabel) {
		s["rest"] += bits.UvarintLen(uint64(len(c.Path))) + bits.UvarintLen(uint64(c.OwnerPos))
		s["row indices"] += len(c.Path) * rw
	}
	if l.Own != nil {
		certSplit(l.Own)
	}
	width := l.idWidth()
	s["id widths"] += bits.UvarintLen(uint64(width))
	s["embedding and pointing"] += bits.UvarintLen(uint64(len(l.Emb))) + 1 // count, pointing bit
	for _, e := range l.Emb {
		s["embedding and pointing"] += 2*width + bits.UvarintLen(uint64(e.Fwd)) + bits.UvarintLen(uint64(e.Bwd))
		certSplit(e.Payload)
	}
	if p := l.Pointing; p != nil {
		s["embedding and pointing"] += 3*width + bits.UvarintLen(uint64(p.DU)) + bits.UvarintLen(uint64(p.DV))
	}
	return s
}

// entrySplit adds one node entry's bits to s, field by field as encodeRaw
// writes them.
func entrySplit(s map[string]int, e *NodeEntry) {
	codes := e.vertexCodes(nil, nil)
	vw, nw := codes.width(), e.nodeWidth()
	class := func(id int) {
		s["class ids"] += algebra.ClassHashBits + bits.UvarintLen(uint64(id)>>algebra.ClassHashBits)
	}
	lanes := func(ls []int) {
		s["lane lists"] += bits.UvarintLen(uint64(len(ls)))
		for _, l := range ls {
			s["lane lists"] += bits.UvarintLen(uint64(l))
		}
	}
	vertices := func(n int) { s["vertex indices"] += n * codes.rw }
	s["id widths"] += bits.UvarintLen(uint64(vw)) + bits.UvarintLen(uint64(nw))
	s["vertex ids"] += bits.UvarintLen(uint64(len(codes.dict))) + len(codes.dict)*vw
	s["node ids"] += nw
	s["rest"] += 3 + 1 // kind, member bit
	lanes(e.Lanes)
	vertices(2 * len(e.Lanes))
	class(e.ClassID)
	child := func(c *ChildSummary) {
		s["node ids"] += nw
		lanes(c.Lanes)
		vertices(2 * len(c.Lanes))
		class(c.MergedClassID)
	}
	if e.member() {
		s["node ids"] += nw
		class(e.MergedClassID)
		vertices(len(e.Lanes))
		s["rest"] += bits.UvarintLen(uint64(len(e.Children)))
		for i := range e.Children {
			child(&e.Children[i])
		}
	}
	s["rest"] += bits.UvarintLen(uint64(len(e.PathIDs))) + len(e.RealBits)
	vertices(len(e.PathIDs))
	for _, in := range e.VInputs {
		s["rest"] += bits.UvarintLen(uint64(in))
	}
	s["rest"] += bits.UvarintLen(uint64(e.LaneI)) + bits.UvarintLen(uint64(e.LaneJ)) + 1 + 3 // BridgeReal, presence bits
	for _, op := range []*OperandSummary{e.Left, e.Right} {
		if op != nil {
			s["node ids"] += nw
			s["rest"] += 3 + bits.UvarintLen(uint64(op.Input))
			lanes(op.Lanes)
			vertices(2 * len(op.Lanes))
			class(op.ClassID)
		}
	}
	if e.RootMember != nil {
		child(e.RootMember)
	}
}

// TestLabelSizeSplit accounts the worst label at n=2048 and n=8192 by field
// (EXPERIMENTS.md records the split) and pins that the parts sum to the
// label's size exactly, so the accounting follows the encoder.
func TestLabelSizeSplit(t *testing.T) {
	for _, n := range []int{2048, 8192} {
		g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), n, 2)
		labeling, stats, err := prove(NewScheme(algebra.Colorable{Q: 3}, 8), cert.NewConfig(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		var worst *EdgeLabel
		for _, e := range g.Edges() {
			if el := labeling.Edges[e]; worst == nil || el.Bits() > worst.Bits() {
				worst = el
			}
		}
		if worst.Bits() != stats.MaxLabelBits {
			t.Fatalf("n=%d: worst label %d bits, stats say %d", n, worst.Bits(), stats.MaxLabelBits)
		}
		split, sum := labelSplit(worst), 0
		for _, f := range splitFields {
			sum += split[f]
			t.Logf("n=%d %-24s %5d bits", n, f, split[f])
		}
		if len(split) > len(splitFields) || sum != worst.Bits() {
			t.Fatalf("n=%d: the split sums to %d bits over %d fields, the label has %d", n, sum, len(split), worst.Bits())
		}
	}
}
