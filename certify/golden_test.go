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
	"family/caterpillar": "1d28a2bd69132e7f06ef49ed1cf61cbbbf40e7fb5bf0652f33a90423403ac0ea",
	"family/cycle":       "b0e70d18af2b72068c1f5bcd18841f4de64ff0425382c74d4a2b0689a83f71bd",
	"family/interval":    "33113a4be818af2bb6211a03497572ebe9782c5361805e811cb53b58c1df3cae",
	"family/ladder":      "ddf43afafad463a82daba0d22ceda4adaa8556a7f808063f40549b8f85cfb71a",
	"family/lobster":     "837c34a7c4dbd8ceec6bd47ba5946d70850046152e26da801c905af65d25c48c",
	"family/path":        "be40ebac6b080f2a10fd6ed41994f995c1dfbdeb9fbaaeb95fb8290414913b75",
	"family/spider":      "9d536921a93c402e35533341ea905db033efb463f914aa87cc9f1288776b6bc7",
	"pair/ladder":        "b8ac16107bc73144a86259fd21945a8e2d362e33e11a92c976756f347aa2ee54",
	"updater/ladder10":   "dd1a599a5f4a4c5cc5f1f7b19b07e15b0978e7c98b008f78dec98e7d925b7387",
	"updater/ladder200":  "7393dee00faf1cddf4580efe00b09059c9400d21b2e20c4d785765c5f4946002",
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
