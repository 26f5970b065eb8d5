package certify

// Golden certificate digests: the SHA-256 of MarshalBinary for fixed inputs,
// pinned against a committed table rather than against another code path.
// Every parallelism level must reproduce the same bytes, and a certificate an
// Updater returns after a fixed edit sequence must equal both the table and a
// fresh prove of the edited graph.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/mso"
	"repro/internal/msoc"
)

// goldenParallelism lists the levels every digest is checked at: 1 runs every
// pool inline, 2 is the smallest pooled count, 0 resolves to GOMAXPROCS.
var goldenParallelism = []int{1, 2, 0}

// goldenDigests maps a case name to the hex SHA-256 of its certificate bytes.
// Only a deliberate wire-format change may re-capture it; any other change
// that moves a digest has changed what the prover emits.
var goldenDigests = map[string]string{
	"family/caterpillar":       "9266da32270fdce4a76644d1903a41bea5ead04ee133f444d5cdf29f8bedf569",
	"family/cycle":             "0b0568ba424afbbe84c924779dd280b7c9a5753ab4819df1a08ba143f6feeb33",
	"family/interval":          "c48f49d6530f5c21db244909d5137996cbdb0755dbe03108e8e8707a238eb16e",
	"family/ladder":            "f991ab9ad09aef0e30daf8b211bf2301131358e469e263c3ff2ee874f1ab7167",
	"family/lobster":           "2730225955f6105ec35c144f196b128b43b56e929db4754a2ad27d2262fa0ff3",
	"family/path":              "ab0a260a21ad8c8d2a8cf63dad379c391642afaaeb7f1b03220de9f5915352de",
	"family/spider":            "74ebf050b5ce160f631bb2928c6a2ab8a7028900af0f79dfdfc6c10119a161d4",
	"pair/ladder":              "94d0cd214a59dc1d6708ab4cac449d982de1ef938d5540e171742cb008096630",
	"formula/3color-path":      "747ed0a60592d3f3e6b66af176d9dbaa009ffb2b2be0b7ff8ae252b900de19a2",
	"formula/bipartite-ladder": "70231c8204ddcc7102e22296403da736254a96ae427b0ee89e995f6a8de3adf5",
	"updater/ladder10":         "6f756c2015c6cefedfd5bd34c64586bb56eb08fce26ee288f2e66bb460f08357",
	"updater/ladder200":        "62569d7231c75ff92529efdd8669f9020ae8880df659fe76617bdc51d7b214a4",
}

func certDigest(t *testing.T, crt *Certificate) string {
	t.Helper()
	blob, err := crt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func requireGolden(t *testing.T, name, got string) {
	t.Helper()
	want, ok := goldenDigests[name]
	if !ok {
		t.Fatalf("%s: no golden digest (got %s)", name, got)
	}
	if got != want {
		t.Fatalf("%s: certificate digest %s, golden %s", name, got, want)
	}
}

func proveDigest(t *testing.T, g *Graph, parallelism int, props ...string) string {
	t.Helper()
	ps, err := PropertiesByName(props...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(ps...), WithParallelism(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	crt, bst, err := c.ProveBatch(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(bst.Failed) > 0 {
		t.Fatalf("properties failed: %v", bst.Failed)
	}
	return certDigest(t, crt)
}

func TestGoldenCertificateDigests(t *testing.T) {
	type proveCase struct {
		g     *Graph
		props []string
	}
	cases := map[string]proveCase{
		"pair/ladder": {Ladder(7), []string{"bipartite", "maxdeg:3"}},
		// Compiled formulas: class ids come from msoc's characteristic-tree
		// digests, so these rows pin the compiler's output as well.
		"formula/bipartite-ladder": {Ladder(12), []string{msoc.Prefix + mso.BipartiteFormula().String()}},
		"formula/3color-path":      {Path(48), []string{msoc.Prefix + mso.ThreeColorableFormula().String()}},
	}
	for name, fc := range families() {
		cases["family/"+name] = proveCase{fc.g, []string{fc.prop}}
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tc := cases[name]
		t.Run(name, func(t *testing.T) {
			for _, p := range goldenParallelism {
				requireGolden(t, name, proveDigest(t, tc.g, p, tc.props...))
			}
		})
	}
}

func TestGoldenUpdaterDigests(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		g     func() *Graph
		props []string
		edits [][]Edit
	}{
		{"ladder10", func() *Graph { return Ladder(10) }, []string{"bipartite", "maxdeg:3"}, [][]Edit{
			{{Op: EditRemove, U: 2, V: 3}},
			{{Op: EditAdd, U: 2, V: 3}, {Op: EditRemove, U: 16, V: 17}},
			{{Op: EditRemove, U: 0, V: 2}},
		}},
		{"ladder200", func() *Graph { return Ladder(200) }, []string{"bipartite"}, [][]Edit{
			{{Op: EditRemove, U: 200, V: 201}},
			{{Op: EditRemove, U: 100, V: 101}, {Op: EditAdd, U: 200, V: 201}},
			{{Op: EditRemove, U: 300, V: 301}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range goldenParallelism {
				ps, err := PropertiesByName(tc.props...)
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(WithProperties(ps...), WithParallelism(p))
				if err != nil {
					t.Fatal(err)
				}
				u, err := c.NewUpdater(ctx, tc.g())
				if err != nil {
					t.Fatal(err)
				}
				var (
					crt  *Certificate
					snap *Graph
				)
				for i, batch := range tc.edits {
					if _, crt, snap, err = u.UpdateCertified(ctx, batch...); err != nil {
						t.Fatalf("parallelism %d: update %d: %v", p, i, err)
					}
				}
				got := certDigest(t, crt)
				requireGolden(t, "updater/"+tc.name, got)
				if fresh := proveDigest(t, snap, p, tc.props...); fresh != got {
					t.Fatalf("parallelism %d: updater digest %s, fresh prove %s", p, got, fresh)
				}
			}
		})
	}
}
