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
	"family/caterpillar": "e9d6cddc23a42260183a96384c0c5a4ee2491a27eae1aba9162ba54bde18b3a6",
	"family/cycle":       "cd35e93b79238f0974962470e2310d1908527d32d3b9a1ab95e032f607ffa223",
	"family/interval":    "518ec39800a27a754f9fbe548fdc7897f847830c3f6f37f4869e0a0cf4e9b5a9",
	"family/ladder":      "e8d37f8108c9a2b05a8837b29dd22af7deb826ab199533ab18ddfbc480aa25b8",
	"family/lobster":     "86d0e8239bbb3399b4d70e6ba7ca600cacb03494b90746cfd40e9e6574bd1c77",
	"family/path":        "b1a6dfab5662bdccc4b39ae1339aa954da902b106e5cb4d6347f2e6f4778e4d5",
	"family/spider":      "ab90cf02028c2a7fe855667aad78cde98dbe526c4f4dec4acf36eb5879d9b32f",
	"pair/ladder":        "289bc5bd14892f3b54a5cb26a3432298d4c47b7ab0b27348224a7eee7fd42c69",
	"updater/ladder10":   "1df423252a8f0dc85b53b8bb5d4347d0a1f26d6d9fccc86af12897ed19d8102b",
	"updater/ladder200":  "93db21a99307d28a65260990641b83c947c6e7a1d933bb823014c000517900bc",
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
