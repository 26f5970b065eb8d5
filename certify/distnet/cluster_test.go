package distnet

import (
	"testing"

	"repro/certify"
)

func TestPartOfBalancedContiguous(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{1, 1}, {10, 1}, {10, 2}, {10, 3}, {10, 4}, {11, 4}, {12, 4},
		{7, 7}, {5, 8}, {100, 9}, {1000, 16},
	} {
		sizes := map[int]int{}
		prev := 0
		for v := 0; v < tc.n; v++ {
			p := PartOf(v, tc.n, tc.parts)
			if p < 0 || p >= tc.parts {
				t.Fatalf("n=%d parts=%d: vertex %d assigned to %d", tc.n, tc.parts, v, p)
			}
			if p < prev {
				t.Fatalf("n=%d parts=%d: partition not contiguous at vertex %d", tc.n, tc.parts, v)
			}
			if p > prev+1 {
				t.Fatalf("n=%d parts=%d: partition skips from %d to %d", tc.n, tc.parts, prev, p)
			}
			prev = p
			sizes[p]++
		}
		min, max := tc.n, 0
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d parts=%d: block sizes differ by %d: %v", tc.n, tc.parts, max-min, sizes)
		}
	}
	// Out-of-range vertices and degenerate shapes collapse to partition 0.
	for _, p := range []int{PartOf(-1, 10, 4), PartOf(10, 10, 4), PartOf(0, 0, 4), PartOf(3, 10, 0)} {
		if p != 0 {
			t.Fatalf("degenerate input mapped to partition %d", p)
		}
	}
}

func proveLocal(t *testing.T, g *certify.Graph, props ...string) *certify.Certificate {
	t.Helper()
	ps, err := certify.PropertiesByName(props...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := certify.New(certify.WithProperties(ps...))
	if err != nil {
		t.Fatal(err)
	}
	crt, stats, err := c.ProveBatch(t.Context(), g)
	if err != nil || len(stats.Failed) > 0 {
		t.Fatalf("prove: err=%v failed=%v", err, stats.Failed)
	}
	return crt
}

func TestClusterFingerprintSeparates(t *testing.T) {
	g := certify.Path(12)
	crt := proveLocal(t, g, "bipartite", "acyclic")

	base, err := ClusterFingerprint(g, crt, "bipartite", 4)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ClusterFingerprint(g, crt, "bipartite", 4); again != base {
		t.Fatal("fingerprint not deterministic")
	}
	if other, _ := ClusterFingerprint(g, crt, "acyclic", 4); other == base {
		t.Fatal("property change did not change the fingerprint")
	}
	if other, _ := ClusterFingerprint(g, crt, "bipartite", 2); other == base {
		t.Fatal("partition count change did not change the fingerprint")
	}
	g2 := certify.Path(13)
	crt2 := proveLocal(t, g2, "bipartite")
	if other, _ := ClusterFingerprint(g2, crt2, "bipartite", 4); other == base {
		t.Fatal("graph change did not change the fingerprint")
	}
}

// TestClusterFingerprintWithoutDecode pins that the coordinator's
// fingerprint is the one every node derives for the same tuple, and that
// computing it decodes nothing: its allocations do not grow with the edge
// count (decoding the labeling allocates per label).
func TestClusterFingerprintWithoutDecode(t *testing.T) {
	var allocs []float64
	for _, n := range []int{512, 8192} {
		g := certify.Interval(1, n, 2)
		crt := proveLocal(t, g, "3color")
		fp, err := ClusterFingerprint(g, crt, "", 3)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(NodeConfig{Graph: g, Certificate: crt, Part: 1, Parts: 3, Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		node.Close()
		if got := node.ClusterFingerprint(); got != fp {
			t.Fatalf("n=%d: node fingerprint %016x, ClusterFingerprint %016x", n, got, fp)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := ClusterFingerprint(g, crt, "", 3); err != nil {
				t.Fatal(err)
			}
		}))
		t.Logf("n=%d m=%d: %.0f allocations", n, g.M(), allocs[len(allocs)-1])
	}
	if allocs[1] > allocs[0] {
		t.Fatalf("ClusterFingerprint allocations grow with m: %.0f → %.0f", allocs[0], allocs[1])
	}
}

func TestBuildClusterValidation(t *testing.T) {
	g := certify.Path(12)
	crt := proveLocal(t, g, "bipartite")

	if _, err := buildCluster(nil, crt, "", 2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := buildCluster(g, nil, "", 2); err == nil {
		t.Error("nil certificate accepted")
	}
	if _, err := buildCluster(g, crt, "", 0); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := buildCluster(g, crt, "", maxWireParts+1); err == nil {
		t.Error("implausible partition count accepted")
	}
	if _, err := buildCluster(g, crt, "3color", 2); err == nil {
		t.Error("property the certificate does not carry accepted")
	}
	if _, err := buildCluster(certify.Path(13), crt, "", 2); err == nil {
		t.Error("certificate bound to a different graph accepted")
	}

	cl, err := buildCluster(g, crt, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if cl.property != "bipartite" {
		t.Fatalf("empty property resolved to %q", cl.property)
	}
	// Partition memories tile the edge set: every edge appears in its
	// endpoints' partitions and nowhere else.
	seen := map[[2]int]int{}
	for p := 0; p < 3; p++ {
		for e := range cl.localMemory(p) {
			seen[[2]int{e.U, e.V}]++
		}
	}
	for _, e := range g.Edges() {
		pu, pv := PartOf(e[0], g.N(), 3), PartOf(e[1], g.N(), 3)
		want := 1
		if pu != pv {
			want = 2 // cut edges have one copy per endpoint partition
		}
		if seen[[2]int{e[0], e[1]}] != want {
			t.Fatalf("edge %v held by %d partitions, want %d", e, seen[[2]int{e[0], e[1]}], want)
		}
	}
}

func TestResolveProperty(t *testing.T) {
	g := certify.Path(10)
	crt := proveLocal(t, g, "bipartite", "acyclic")
	if p, err := ResolveProperty(crt, ""); err != nil || p != "bipartite" {
		t.Fatalf("default: (%q, %v)", p, err)
	}
	if p, err := ResolveProperty(crt, "acyclic"); err != nil || p != "acyclic" {
		t.Fatalf("explicit: (%q, %v)", p, err)
	}
	if _, err := ResolveProperty(crt, "3color"); err == nil {
		t.Fatal("absent property resolved")
	}
	if _, err := ResolveProperty(nil, ""); err == nil {
		t.Fatal("nil certificate resolved")
	}
}
