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
)

// goldenParallelism lists the levels every digest is checked at: 1 runs every
// pool inline, 2 is the smallest pooled count, 0 resolves to GOMAXPROCS.
var goldenParallelism = []int{1, 2, 0}

// goldenDigests maps a case name to the hex SHA-256 of its certificate bytes.
// Only a deliberate wire-format change may re-capture it; any other change
// that moves a digest has changed what the prover emits.
var goldenDigests = map[string]string{
	"family/caterpillar": "c50c40008f938788c7f6509ed6f1fde47075e0ce9af5da7300b62a309d27a397",
	"family/cycle":       "4c46d45ee8195afe00e4fae1a40563d60bf97ce57ea92f8b561437e949a38807",
	"family/interval":    "d1bff4cb7bcdd26adec3933f2ac06979679ff380a32a9ac8abc5760ce5e32248",
	"family/ladder":      "eb0e4ff6767c673ea1a111f5a86222a1970de5122fe698af42cc4c4ee6769c7a",
	"family/lobster":     "a425934f0563bae0d8f35aeeac8717a0c9288df43e82e3a8879511b20e7bd849",
	"family/path":        "afab1c6f70d363231d7c477a370c32271fcaaa8dfb4a8a444cf35be99528331f",
	"family/spider":      "8b6bc2b4f05fbb0a9286a7e6f44d46889bb23e230d97032c3ba6d0c1422cde83",
	"pair/ladder":        "f6246ee8b797f8f256d47ab16f1a0da079633ee26c9ae595bdcf5b5830464937",
	"updater/ladder10":   "3ff92b09565db9ecbaf9085a83a939a54093c29c32dfb0bfeff850e5211158d2",
	"updater/ladder200":  "ed92d4657f0c37caf6c2fc19c4a6b946fd201754d8dfd134e2bf8c3cbcdff5a3",
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
