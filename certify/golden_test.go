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
	"family/caterpillar":       "b6d64925c7bd3c6dfe54eaa7ca4112ef4de06b8f651b880cb4f057df02b0a9fc",
	"family/cycle":             "222d059308343c817afbaf25b53806dd3092ebcbb1a126beee878e7e3ccd457a",
	"family/interval":          "1c1de51f05a2d79fd832d60aaebef0b79a01681bd5d0762aa683445c68755d5c",
	"family/ladder":            "1ceee4b652bd3232cc6f17a0bf05ab9d0b04055bd0982ae1f4552082e588819a",
	"family/lobster":           "b1def892cceae5ee9330c086f44f1f6ffa32fbe679ee8e84f9beafb6ea7bd2ee",
	"family/path":              "4f7811ffeeff449e8641340364d8516742615673b61d5c7b2a40c4c40cc660ec",
	"family/spider":            "660410f29978e4a76c2bd07a8eb2111f29c4086800e72da49fdf207aba0dc10d",
	"pair/ladder":              "4332f5ac0e82ffbc810cd1ca4650953e44d523e79629feaa7fd96e55ee9c6ad5",
	"formula/3color-path":      "3cac0a88709781f094b3e55e36f459c4732d7c28a2c147688b7e7ebb4deb09bb",
	"formula/bipartite-ladder": "3478810fa4b7f743b9f114ace76c606b6137e7cab9e0da35e4846e0acf7ad9c3",
	"updater/ladder10":         "4f4cdc75958c1acc63788562ab5faecadf88123a0c6cb5bb17d0e883e8eae728",
	"updater/ladder200":        "b94dfac6ba53ccea0ba39f8c7365d9ce387b6fc4ed01dec4aafa73dd813a61f7",
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
