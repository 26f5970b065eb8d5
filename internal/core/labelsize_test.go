package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
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
// fixed width per entry, so quadrupling n adds about two bits to each
// identifier field: about 250 bits to this label.
func TestLabelSizeSlope(t *testing.T) {
	small, large := worstLabelBits(t, 2048), worstLabelBits(t, 8192)
	t.Logf("worst label: %d bits at n=2048, %d bits at n=8192", small, large)
	if gap := large - small; gap > 300 {
		t.Fatalf("worst label grows by %d bits from n=2048 to n=8192, want ≤ 300", gap)
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
