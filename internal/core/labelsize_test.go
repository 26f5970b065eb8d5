package core

import (
	"fmt"
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
// fixed width per label dictionary, and each label writes each distinct
// id once, so quadrupling n adds about two bits per distinct identifier:
// 48 bits to this label (114 with one dictionary per entry, 178 when every
// vertex-id occurrence was written in full).
func TestLabelSizeSlope(t *testing.T) {
	small, large := worstLabelBits(t, 2048), worstLabelBits(t, 8192)
	t.Logf("worst label: %d bits at n=2048, %d bits at n=8192", small, large)
	if gap := large - small; gap > 80 {
		t.Fatalf("worst label grows by %d bits from n=2048 to n=8192, want ≤ 80", gap)
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

// TestLabelSizeLabelDictionary pins the label-wide dictionaries: a label
// writes each distinct vertex id, class id and node id once, for all its
// entry-table rows and its own fields together, and every occurrence as an
// index into them. Under version
// 4, which kept one vertex-id dictionary per entry and wrote class ids
// inline, the worst label at n=8192 was 1590 bits. The pin is 0.85× the
// version-4 size.
func TestLabelSizeLabelDictionary(t *testing.T) {
	const v4Bits = 1590
	if got := worstLabelBits(t, 8192); 100*got > 85*v4Bits {
		t.Fatalf("worst label at n=8192 is %d bits, want ≤ 0.85 × %d", got, v4Bits)
	}
}

// TestLabelSizeSortedDictionaries pins the sorted vertex-id and node-id
// dictionaries, each in the shorter of a fixed width and gaps between
// consecutive ids. Under version 5, which listed them in first-use order
// in a fixed width, the worst label at n=8192 was 1133 bits; sorted and
// gap-coded it is 919. The pin is 0.9× the version-5 size.
func TestLabelSizeSortedDictionaries(t *testing.T) {
	const v5Bits = 1133
	if got := worstLabelBits(t, 8192); 10*got > 9*v5Bits {
		t.Fatalf("worst label at n=8192 is %d bits, want ≤ 0.9 × %d", got, v5Bits)
	}
}

// TestIDAssignmentCannotGrowALabel pins what the coding flag buys: under
// any identifier assignment, each label's vertex-id and node-id dictionary
// takes at most its version-5 size — γ(d) + γ(w) + d·w for d ids of width
// w, in a fixed width — plus the flag bit. Gaps win on the canonical ids
// v+1, which sit close together in a label; under a random permutation or
// random 40-bit ids they are scattered, and the fixed width is kept.
// Random 64-bit ids are too wide to be sorted packed with their rows, so
// the encoder's other sort runs. Every label must match the reference
// encoder byte for byte and its field split must sum to its size, so the
// dictionary bits checked are the encoder's.
func TestIDAssignmentCannotGrowALabel(t *testing.T) {
	g, _ := gen.IntervalGraph(rand.New(rand.NewSource(1)), 2048, 2)
	assignments := []struct {
		name   string
		assign func(ids []uint64)
	}{
		{"identity", func([]uint64) {}},
		{"permuted", func(ids []uint64) {
			for v, p := range rand.New(rand.NewSource(2)).Perm(len(ids)) {
				ids[v] = uint64(p) + 1
			}
		}},
		{"random 40-bit", randomIDs(3, 40)},
		{"random 64-bit", randomIDs(4, 64)},
	}
	for _, a := range assignments {
		cfg := cert.NewConfig(g)
		a.assign(cfg.IDs)
		labeling, _, err := prove(NewScheme(algebra.Colorable{Q: 3}, 8), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var v5, v6, gaps [2]int // vertex, node dictionary bits over all labels
		for e, l := range labeling.Edges {
			split, sum := labelSplit(l), 0
			for _, f := range splitFields {
				sum += split[f]
			}
			if sum != l.Bits() {
				t.Fatalf("%s, edge %v: the split sums to %d bits, the label has %d", a.name, e, sum, l.Bits())
			}
			requireRefEncoding(t, fmt.Sprintf("%s, edge %v", a.name, e), l)
			rows, _ := l.table(nil, nil)
			var occV, occN []uint64
			for _, en := range rows {
				occV, occN = en.appendVertexIDs(occV), en.appendNodeIDs(occN)
			}
			occV = l.appendVertexIDs(occV)
			for i, dict := range []struct {
				field string
				occ   []uint64
			}{{"vertex ids", occV}, {"node ids", occN}} {
				ids := refSortedDictionary(dict.occ)
				width := refWidth(ids)
				old := bits.UvarintLen(uint64(len(ids))) + bits.UvarintLen(uint64(width)) + len(ids)*width
				if split[dict.field] > old+1 {
					t.Fatalf("%s, edge %v: %s take %d bits, %d in version 5", a.name, e, dict.field, split[dict.field], old)
				}
				_, gapped := refIDDictBits(ids)
				v5[i], v6[i], gaps[i] = v5[i]+old, v6[i]+split[dict.field], gaps[i]+gapped
			}
		}
		per := func(n int) float64 { return float64(n) / float64(len(labeling.Edges)) }
		t.Logf("%-13s per label: vertex ids %6.1f bits (v5 %6.1f, gaps alone %6.1f), node ids %5.1f bits (v5 %5.1f, gaps alone %5.1f)",
			a.name, per(v6[0]), per(v5[0]), per(gaps[0]), per(v6[1]), per(v5[1]), per(gaps[1]))
	}
}

// randomIDs returns an assignment of distinct, nonzero, seeded random ids
// of the given bit length.
func randomIDs(seed int64, width int) func(ids []uint64) {
	return func(ids []uint64) {
		rng, seen := rand.New(rand.NewSource(seed)), map[uint64]bool{}
		for v := range ids {
			id := rng.Uint64() >> (64 - width)
			for id == 0 || seen[id] {
				id = rng.Uint64() >> (64 - width)
			}
			ids[v], seen[id] = id, true
		}
	}
}

// splitFields names the parts labelSplit divides a label's bits into, in
// the order they are logged.
var splitFields = []string{
	"vertex ids", "vertex indices", "node ids", "node indices", "class ids", "class indices",
	"embedding and pointing", "lane lists", "row indices", "rest",
}

// labelSplit accounts a label's bits by field, mirroring the encoder field
// by field: vertex ids and node ids (the label's vertex and node
// dictionaries in their shorter coding: flag, size, and width and ids or
// gaps), vertex indices and node indices
// (every occurrence in the rows as a dictionary index), class ids (the
// class dictionary: its size and ids), class indices, the label's own
// embedding and pointing fields (their vertex ids as indices), lane
// lists, entry-table row indices, and the rest (counts, kinds, flags, real
// bits, inputs, owner positions). The parts sum to EdgeLabel.Bits exactly.
func labelSplit(l *EdgeLabel) map[string]int {
	s := map[string]int{}
	rows, _ := l.table(nil, nil)
	s["rest"] += bits.UvarintLen(uint64(len(rows))) + 1 // row count, own bit
	var occV, occC, occN []uint64
	for _, e := range rows {
		occV, occC, occN = e.appendVertexIDs(occV), e.appendClassIDs(occC), e.appendNodeIDs(occN)
	}
	occV = l.appendVertexIDs(occV)
	idDict := func(field string, occ []uint64) int {
		ids := refSortedDictionary(occ)
		s[field] += min(refIDDictBits(ids))
		return rowWidth(len(ids))
	}
	rwV, rwN := idDict("vertex ids", occV), idDict("node ids", occN)
	cd := refDictionary(occC)
	s["class ids"] += bits.UvarintLen(uint64(len(cd)))
	for _, id := range cd {
		s["class ids"] += algebra.ClassHashBits + bits.UvarintLen(id>>algebra.ClassHashBits)
	}
	for _, e := range rows {
		entrySplit(s, e, rwV, rowWidth(len(cd)), rwN)
	}
	rw := rowWidth(len(rows))
	certSplit := func(c *CEdgeLabel) {
		s["rest"] += bits.UvarintLen(uint64(len(c.Path))) + bits.UvarintLen(uint64(c.OwnerPos))
		s["row indices"] += len(c.Path) * rw
	}
	if l.Own != nil {
		certSplit(l.Own)
	}
	s["embedding and pointing"] += bits.UvarintLen(uint64(len(l.Emb))) + 1 // count, pointing bit
	for _, e := range l.Emb {
		s["embedding and pointing"] += 2*rwV + bits.UvarintLen(uint64(e.Fwd)) + bits.UvarintLen(uint64(e.Bwd))
		certSplit(e.Payload)
	}
	if p := l.Pointing; p != nil {
		s["embedding and pointing"] += 3*rwV + bits.UvarintLen(uint64(p.DU)) + bits.UvarintLen(uint64(p.DV))
	}
	return s
}

// entrySplit adds one table row's bits to s, field by field as
// NodeEntry.encode writes them, with vertex, class and node indices of
// widths rwV, rwC and rwN.
func entrySplit(s map[string]int, e *NodeEntry, rwV, rwC, rwN int) {
	class := func() { s["class indices"] += rwC }
	node := func() { s["node indices"] += rwN }
	lanes := func(ls []int) {
		s["lane lists"] += bits.UvarintLen(uint64(len(ls)))
		for _, l := range ls {
			s["lane lists"] += bits.UvarintLen(uint64(l))
		}
	}
	vertices := func(n int) { s["vertex indices"] += n * rwV }
	node()
	s["rest"] += 3 + 1 // kind, member bit
	lanes(e.Lanes)
	vertices(2 * len(e.Lanes))
	class()
	child := func(c *NodeSummary) {
		node()
		lanes(c.Lanes)
		vertices(2 * len(c.Lanes))
		class()
	}
	if e.member() {
		node()
		class()
		vertices(len(e.Lanes))
		s["rest"] += bits.UvarintLen(uint64(len(e.Children)))
		for _, c := range e.Children {
			child(c)
		}
	}
	s["rest"] += bits.UvarintLen(uint64(len(e.PathIDs))) + len(e.RealBits)
	vertices(len(e.PathIDs))
	for _, in := range e.VInputs {
		s["rest"] += bits.UvarintLen(uint64(in))
	}
	s["rest"] += bits.UvarintLen(uint64(e.LaneI)) + bits.UvarintLen(uint64(e.LaneJ)) + 1 + 3 // BridgeReal, presence bits
	for _, op := range e.operands() {
		if op != nil {
			node()
			s["rest"] += 3 + bits.UvarintLen(uint64(op.Input))
			lanes(op.Lanes)
			vertices(2 * len(op.Lanes))
			class()
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
