package certify

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/mso"
	"repro/internal/msoc"
)

// memoProps resolves the memo tests' property set: a plain and a
// parameterized catalog algebra, a conjunction and a compiled formula.
// Each call returns fresh instances with empty memos.
func memoProps(t *testing.T) []Property {
	t.Helper()
	props, err := PropertiesByName("3color", "maxdeg:3", "and(bipartite,maxdeg:3)")
	if err != nil {
		t.Fatal(err)
	}
	f, err := FormulaProperty(mso.BipartiteFormula().String())
	if err != nil {
		t.Fatal(err)
	}
	return append(props, f)
}

// memoGraphs are three graphs on which every memoProps property holds.
func memoGraphs() map[string]*Graph {
	return map[string]*Graph{
		"ladder-12":      Ladder(12),
		"caterpillar-10": Caterpillar(10, 1),
		"path-17":        Path(17),
	}
}

// proveBlob proves every property of the certifier on g and marshals the
// certificate.
func proveBlob(t *testing.T, c *Certifier, g *Graph) []byte {
	t.Helper()
	crt, bst, err := c.ProveBatch(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bst.Failed) > 0 {
		t.Fatalf("properties fail: %v", bst.Failed)
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// freshBlob proves g through newly resolved properties, whose memos start
// empty: the reference every warm prove must match byte for byte.
func freshBlob(t *testing.T, g *Graph) []byte {
	t.Helper()
	c, err := New(WithProperties(memoProps(t)...))
	if err != nil {
		t.Fatal(err)
	}
	return proveBlob(t, c, g)
}

// TestWarmMemoIsTransparent proves the property set on three graphs through
// one set of Property instances, so every prove after the first starts
// from the memos the earlier ones filled. Each certificate must equal a
// prove through fresh instances byte for byte, its decoded copy must
// verify through the warm certifier, and every fault of the catalog must
// still be caught there.
func TestWarmMemoIsTransparent(t *testing.T) {
	ctx := context.Background()
	warm, err := New(WithProperties(memoProps(t)...))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range memoGraphs() {
		blob := proveBlob(t, warm, g)
		if !bytes.Equal(blob, freshBlob(t, g)) {
			t.Fatalf("%s: certificate through warm properties differs from a fresh prove", name)
		}
		var decoded Certificate
		if err := decoded.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if err := warm.Verify(ctx, g, &decoded); err != nil {
			t.Fatalf("%s: decoded certificate rejected by the warm certifier: %v", name, err)
		}
		for _, fault := range FaultNames() {
			corrupted, err := decoded.Corrupt(5, fault)
			if errors.Is(err, ErrBadConfig) {
				continue // the fault has no host on these labels
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Verify(ctx, g, corrupted); !errors.Is(err, ErrVerifyFailed) {
				t.Fatalf("%s: %s corruption verified through the warm certifier: %v", name, fault, err)
			}
		}
	}
}

// TestConcurrentProvesShareMemo runs ProveBatch on two graphs at once
// through one certifier, so both passes of each property fill and read one
// memo concurrently (CI runs it under -race). Both certificates must match
// fresh proves.
func TestConcurrentProvesShareMemo(t *testing.T) {
	c, err := New(WithProperties(memoProps(t)...))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*Graph{Ladder(12), Caterpillar(10, 1)}
	blobs := make([][]byte, len(graphs))
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crt, _, err := c.ProveBatch(context.Background(), g)
			if err != nil {
				t.Error(err)
				return
			}
			if blobs[i], err = crt.MarshalBinary(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, g := range graphs {
		if !t.Failed() && !bytes.Equal(blobs[i], freshBlob(t, g)) {
			t.Fatalf("graph %d: concurrent warm prove differs from a fresh prove", i)
		}
	}
}

// TestWarmCertifierComputesNothingTwice pins the saving as a count: once a
// certifier has proved a graph, a second prove of it computes no algebra
// evaluation, and neither does verifying the decoded copy of its
// certificate. Every computed evaluation is stored in the memo unless a
// racing worker stored it first, so an unchanged memo size means nothing
// was computed.
func TestWarmCertifierComputesNothingTwice(t *testing.T) {
	ctx := context.Background()
	props := memoProps(t)
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	g := Ladder(12)
	blob := proveBlob(t, c, g)
	sizes := func() []int {
		out := make([]int, len(props))
		for i, p := range props {
			out[i] = p.algebraMemo().Len()
		}
		return out
	}
	before := sizes()

	// The second prove, through the batch ProveBatch builds, reporting
	// each pass's misses.
	st, err := c.BuildStructure(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.newBatch()
	if err != nil {
		t.Fatal(err)
	}
	_, bst, err := batch.ProveAllWithCtx(ctx, st.sp)
	if err != nil {
		t.Fatal(err)
	}
	for name, ps := range bst.PerProperty {
		if ps.Stages.MemoMisses != 0 {
			t.Fatalf("%s: second prove of the same graph computed %d evaluations, want 0", name, ps.Stages.MemoMisses)
		}
	}

	var decoded Certificate
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(ctx, g, &decoded); err != nil {
		t.Fatal(err)
	}
	if after := sizes(); !slices.Equal(after, before) {
		t.Fatalf("memo sizes went %v → %v: the second prove or the verify computed evaluations", before, after)
	}

	// The same verify through a certifier with fresh instances computes
	// every evaluation into their memos: the warm verify above did go
	// through the configured properties.
	cold := memoProps(t)
	v, err := New(WithProperties(cold...))
	if err != nil {
		t.Fatal(err)
	}
	var again Certificate
	if err := again.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(ctx, g, &again); err != nil {
		t.Fatal(err)
	}
	for _, p := range cold {
		if p.algebraMemo().Len() == 0 {
			t.Fatalf("%s: verify did not evaluate through the verifier's configured property", p.Name())
		}
	}
}

// TestSecondBatchComposesNothing pins msoc's side of a warm prove: once a
// batch has proved a structure, a second ProveBatchOn of the same compiled
// properties on it runs no compose walk and interns no node.
func TestSecondBatchComposesNothing(t *testing.T) {
	ctx := context.Background()
	var props []Property
	var compiled []*msoc.Prop
	for _, f := range []mso.Formula{mso.BipartiteFormula(), mso.ThreeColorableFormula()} {
		p, err := FormulaProperty(f.String())
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
		compiled = append(compiled, p.p.(*msoc.Prop))
	}
	c, err := New(WithProperties(props...))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.BuildStructure(ctx, Caterpillar(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	stats := func() []msoc.Stats {
		out := make([]msoc.Stats, len(compiled))
		for i, p := range compiled {
			out[i] = p.Stats()
		}
		return out
	}
	for pass := 1; pass <= 2; pass++ {
		before := stats()
		if _, bst, err := c.ProveBatchOn(ctx, st); err != nil || len(bst.Failed) > 0 {
			t.Fatalf("pass %d: %v %v", pass, err, bst)
		}
		after := stats()
		for i, p := range props {
			switch {
			case pass == 1 && after[i].Composes == before[i].Composes:
				t.Fatalf("%s: the first batch composed nothing (%+v)", p.Name(), after[i])
			case pass == 2 && after[i] != before[i]:
				t.Fatalf("%s: the second batch moved the counters %+v → %+v", p.Name(), before[i], after[i])
			}
		}
	}
}

// TestFullMemoIsReplacedNotCleared pins the memo cap: once a property's
// memo holds the limit, later schemes get a fresh memo, and the full one is
// left intact for the schemes still using it.
func TestFullMemoIsReplacedNotCleared(t *testing.T) {
	p, err := PropertyByName("bipartite")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperty(p))
	if err != nil {
		t.Fatal(err)
	}
	proveBlob(t, c, Ladder(6))
	full := p.memo.load(maxMemoEntries)
	n := full.Len()
	if n == 0 {
		t.Fatal("prove left the memo empty")
	}
	if got := p.memo.load(n + 1); got != full {
		t.Fatal("a memo under the limit was replaced")
	}
	fresh := p.memo.load(n)
	if fresh == full || fresh.Len() != 0 {
		t.Fatalf("a memo at the limit was not replaced by an empty one (len %d)", fresh.Len())
	}
	if full.Len() != n {
		t.Fatalf("the replaced memo was cleared in place: len %d → %d", n, full.Len())
	}
	if p.memo.load(maxMemoEntries) != fresh {
		t.Fatal("later schemes do not get the replacement memo")
	}
}
