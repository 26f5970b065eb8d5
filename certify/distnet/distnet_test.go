package distnet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/certify"
	"repro/certify/distnet"
	"repro/internal/core"
	"repro/internal/mso"
)

// families pairs every public generator family with a property that holds
// on it, so a clean cluster must accept.
var families = []struct {
	name string
	prop string
	g    func() *certify.Graph
}{
	{"path", "bipartite", func() *certify.Graph { return certify.Path(17) }},
	{"cycle-even", "bipartite", func() *certify.Graph { return certify.Cycle(12) }},
	{"cycle-odd", "3color", func() *certify.Graph { return certify.Cycle(13) }},
	{"caterpillar", "acyclic", func() *certify.Graph { return certify.Caterpillar(8, 1) }},
	{"lobster", "bipartite", func() *certify.Graph { return certify.Lobster(6, 1) }},
	{"ladder", "bipartite", func() *certify.Graph { return certify.Ladder(8) }},
	{"spider", "acyclic", func() *certify.Graph { return certify.Spider(6) }},
	{"interval", "3color", func() *certify.Graph { return certify.Interval(7, 20, 2) }},
}

type fixture struct {
	g   *certify.Graph
	crt *certify.Certificate
}

func prove(t *testing.T, g *certify.Graph, props ...string) fixture {
	t.Helper()
	ps, err := certify.PropertiesByName(props...)
	if err != nil {
		t.Fatalf("properties %v: %v", props, err)
	}
	c, err := certify.New(certify.WithProperties(ps...))
	if err != nil {
		t.Fatalf("certifier: %v", err)
	}
	crt, stats, err := c.ProveBatch(context.Background(), g)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if len(stats.Failed) > 0 {
		t.Fatalf("properties %v do not hold on the fixture graph", stats.Failed)
	}
	return fixture{g: g, crt: crt}
}

// testCluster is an in-process cluster: real TCP between nodes, one
// goroutine set per node, driven by a coordinator.
type testCluster struct {
	fx    fixture
	prop  string
	nodes []*distnet.Node
	addrs []string
	coord *distnet.Coordinator
}

// startCluster boots parts nodes on loopback and a coordinator over them.
// nodeRT/coordRT shorten the round deadlines for churn tests (0 = default).
func startCluster(t *testing.T, fx fixture, prop string, parts int, nodeRT, coordRT time.Duration) *testCluster {
	t.Helper()
	cl := &testCluster{fx: fx, prop: prop, addrs: make([]string, parts), nodes: make([]*distnet.Node, parts)}
	for i := 0; i < parts; i++ {
		cl.nodes[i] = cl.startNode(t, i, "127.0.0.1:0", nodeRT)
		cl.addrs[i] = cl.nodes[i].Addr()
	}
	for _, n := range cl.nodes {
		if err := n.Start(cl.addrs); err != nil {
			t.Fatalf("start node: %v", err)
		}
	}
	coord, err := distnet.NewCoordinator(distnet.CoordinatorConfig{
		Graph:        fx.g,
		Certificate:  fx.crt,
		Property:     prop,
		Addrs:        cl.addrs,
		RoundTimeout: coordRT,
		MaxBackoff:   250 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	cl.coord = coord
	t.Cleanup(func() {
		coord.Close()
		for _, n := range cl.nodes {
			n.Close()
		}
	})
	return cl
}

func (cl *testCluster) startNode(t *testing.T, part int, addr string, nodeRT time.Duration) *distnet.Node {
	t.Helper()
	n, err := distnet.NewNode(distnet.NodeConfig{
		Graph:        cl.fx.g,
		Certificate:  cl.fx.crt,
		Property:     cl.prop,
		Part:         part,
		Parts:        len(cl.nodes),
		Addr:         addr,
		RoundTimeout: nodeRT,
		MaxBackoff:   250 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("node %d: %v", part, err)
	}
	return n
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return c
}

// TestClusterParityClean is the completeness half of the simulator-parity
// acceptance: on every generator family, a clean 4-partition TCP cluster
// and the in-process distributed round (VerifyDistributed) both accept the
// honest labeling.
func TestClusterParityClean(t *testing.T) {
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			fx := prove(t, f.g(), f.prop)

			c, err := certify.New()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyDistributed(ctx(t), fx.g, fx.crt); err != nil {
				t.Fatalf("simulator rejects the honest labeling: %v", err)
			}

			cl := startCluster(t, fx, f.prop, 4, 0, 0)
			v, rounds, err := cl.coord.RunUntilVerdict(ctx(t), 4)
			if err != nil {
				t.Fatalf("cluster verdict: %v", err)
			}
			if !v.Accepted {
				t.Fatalf("cluster rejects the honest labeling: %d vertices %v", v.RejectedTotal, v.Rejected)
			}
			if rounds > 2 {
				t.Errorf("clean cluster needed %d rounds to converge", rounds)
			}
		})
	}
}

// TestClusterDetectsEveryMemoryFault is the soundness half: on every
// generator family, every fault of the dist catalog injected into a live
// partition's label memory is detected within one complete round, and the
// cluster accepts again after healing.
func TestClusterDetectsEveryMemoryFault(t *testing.T) {
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			fx := prove(t, f.g(), f.prop)
			cl := startCluster(t, fx, f.prop, 4, 0, 0)

			for i, fault := range certify.FaultNames() {
				// The fault must land somewhere: partitions tile the edge
				// set, so some partition's memory can host it.
				injected := -1
				for part := range cl.nodes {
					applied, detail, err := cl.coord.InjectMemory(ctx(t), part, fault, int64(100+i))
					if err != nil {
						t.Fatalf("inject %s into %d: %v", fault, part, err)
					}
					if applied {
						injected = part
						break
					}
					t.Logf("partition %d cannot host %s: %s", part, fault, detail)
				}
				if injected < 0 {
					t.Fatalf("fault %s not applicable to any partition", fault)
				}

				v, rounds, err := cl.coord.RunUntilVerdict(ctx(t), 4)
				if err != nil {
					t.Fatalf("verdict after %s: %v", fault, err)
				}
				if v.Accepted {
					t.Fatalf("fault %s in partition %d went undetected", fault, injected)
				}
				if rounds != 1 {
					t.Errorf("fault %s detected after %d rounds, want 1", fault, rounds)
				}

				if _, _, err := cl.coord.Heal(ctx(t), injected); err != nil {
					t.Fatalf("heal: %v", err)
				}
				v, _, err = cl.coord.RunUntilVerdict(ctx(t), 4)
				if err != nil {
					t.Fatalf("verdict after heal: %v", err)
				}
				if !v.Accepted {
					t.Fatalf("cluster still rejects after healing %s: %v", fault, v.Rejected)
				}
			}
		})
	}
}

// TestClusterTransportFaults arms each one-shot transport fault and checks
// the cluster still converges to the honest accept: frame loss and torn
// frames abandon the round and re-run; duplicates and stragglers are
// discarded without costing a round.
func TestClusterTransportFaults(t *testing.T) {
	fx := prove(t, certify.Ladder(8), "bipartite")
	for _, fault := range distnet.TransportFaults {
		fault := fault
		t.Run(fault, func(t *testing.T) {
			t.Parallel()
			cl := startCluster(t, fx, "bipartite", 4, 750*time.Millisecond, 2500*time.Millisecond)

			// One clean round first, so reorder has a previous frame to
			// replay as a straggler.
			v, _, err := cl.coord.RunUntilVerdict(ctx(t), 4)
			if err != nil || !v.Accepted {
				t.Fatalf("clean round: v=%+v err=%v", v, err)
			}

			applied, detail, err := cl.coord.InjectTransport(ctx(t), 1, fault, 7)
			if err != nil {
				t.Fatalf("arm %s: %v", fault, err)
			}
			if !applied {
				t.Fatalf("partition 1 refused transport fault %s: %s", fault, detail)
			}

			v, rounds, err := cl.coord.RunUntilVerdict(ctx(t), 8)
			if err != nil {
				t.Fatalf("no verdict under %s: %v", fault, err)
			}
			if !v.Accepted {
				t.Fatalf("transport fault %s turned into a spurious reject: %v", fault, v.Rejected)
			}
			switch fault {
			case "drop", "truncate-frame":
				if rounds < 2 {
					t.Errorf("%s should abandon at least one round, converged in %d", fault, rounds)
				}
			case "duplicate", "reorder":
				if rounds != 1 {
					t.Errorf("%s should not cost a round, took %d", fault, rounds)
				}
			}
		})
	}
}

// TestKillAndRestart kills one partition mid-sequence: rounds abandon (never
// a false accept), and once the partition restarts — reloading pristine
// memory from the certificate — the cluster converges again.
func TestKillAndRestart(t *testing.T) {
	fx := prove(t, certify.Ladder(8), "bipartite")
	cl := startCluster(t, fx, "bipartite", 4, 500*time.Millisecond, 1500*time.Millisecond)

	v, _, err := cl.coord.RunUntilVerdict(ctx(t), 4)
	if err != nil || !v.Accepted {
		t.Fatalf("clean round: v=%+v err=%v", v, err)
	}

	// Kill partition 2.
	if err := cl.nodes[2].Close(); err != nil {
		t.Fatalf("close node 2: %v", err)
	}
	v, err = cl.coord.RunRound(ctx(t))
	if err != nil {
		t.Fatalf("round with dead partition: %v", err)
	}
	if !v.Abandoned {
		t.Fatalf("round with dead partition was not abandoned: %+v", v)
	}
	if v.Accepted {
		t.Fatalf("false accept with a dead partition: %+v", v)
	}
	found := false
	for _, p := range v.Missing {
		if p == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead partition 2 not in missing set %v", v.Missing)
	}

	// Restart partition 2 on its original address and wire it back in.
	n2 := cl.startNode(t, 2, cl.addrs[2], 500*time.Millisecond)
	if err := n2.Start(cl.addrs); err != nil {
		t.Fatalf("restart node 2: %v", err)
	}
	cl.nodes[2] = n2

	v, rounds, err := cl.coord.RunUntilVerdict(ctx(t), 8)
	if err != nil {
		t.Fatalf("no convergence after restart: %v", err)
	}
	if !v.Accepted {
		t.Fatalf("reject after restart: %d vertices %v", v.RejectedTotal, v.Rejected)
	}
	t.Logf("converged %d round(s) after restart", rounds)
}

// TestForeignClusterRefused launches nodes and coordinator with different
// properties of the same certificate: the cluster fingerprints differ, the
// handshake is refused, and every round is abandoned instead of mis-scored.
func TestForeignClusterRefused(t *testing.T) {
	fx := prove(t, certify.Path(12), "bipartite", "acyclic")
	cl := startCluster(t, fx, "bipartite", 2, 500*time.Millisecond, 1500*time.Millisecond)

	foreign, err := distnet.NewCoordinator(distnet.CoordinatorConfig{
		Graph:        fx.g,
		Certificate:  fx.crt,
		Property:     "acyclic",
		Addrs:        cl.addrs,
		RoundTimeout: time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("foreign coordinator: %v", err)
	}
	defer foreign.Close()

	v, err := foreign.RunRound(ctx(t))
	if err != nil {
		t.Fatalf("foreign round: %v", err)
	}
	if !v.Abandoned || v.Accepted {
		t.Fatalf("foreign coordinator got a verdict: %+v", v)
	}

	// The matching coordinator still works.
	v, _, err = cl.coord.RunUntilVerdict(ctx(t), 4)
	if err != nil || !v.Accepted {
		t.Fatalf("matching coordinator: v=%+v err=%v", v, err)
	}
}

// TestCoordinatorPing exercises the liveness probe against live and dead
// partitions.
func TestCoordinatorPing(t *testing.T) {
	fx := prove(t, certify.Path(9), "bipartite")
	cl := startCluster(t, fx, "bipartite", 2, 500*time.Millisecond, 1500*time.Millisecond)

	if _, err := cl.coord.Ping(ctx(t), 1); err != nil {
		t.Fatalf("ping live partition: %v", err)
	}
	cl.nodes[1].Close()
	if _, err := cl.coord.Ping(ctx(t), 1); err == nil {
		t.Fatal("ping of a dead partition succeeded")
	}
}

// TestPeersSeen checks heartbeat-based liveness: after a round plus an idle
// heartbeat interval, every peer a partition shares cut edges with has been
// heard from recently.
func TestPeersSeen(t *testing.T) {
	fx := prove(t, certify.Path(12), "bipartite")
	cl := startCluster(t, fx, "bipartite", 3, 0, 0)

	if v, _, err := cl.coord.RunUntilVerdict(ctx(t), 4); err != nil || !v.Accepted {
		t.Fatalf("round: err=%v", err)
	}
	// Partition 1 of a path receives labels from both 0 and 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		seen := cl.nodes[1].PeersSeen()
		if !seen[0].IsZero() && !seen[2].IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition 1 never heard from both neighbors: %v", seen)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterFormulaCertificate pins that a cluster resolves a compiled
// formula's property name ("mso:" + formula) as the verifier does: an
// honest certificate of an MSO₂ formula is accepted, and a copy corrupted by
// any fault of the catalog is rejected.
func TestClusterFormulaCertificate(t *testing.T) {
	prop, err := certify.FormulaProperty(mso.BipartiteFormula().String())
	if err != nil {
		t.Fatal(err)
	}
	fx := prove(t, certify.Ladder(6), prop.Name())
	cl := startCluster(t, fx, prop.Name(), 2, 0, 0)
	v, _, err := cl.coord.RunUntilVerdict(ctx(t), 4)
	if err != nil {
		t.Fatalf("cluster verdict: %v", err)
	}
	if !v.Accepted {
		t.Fatalf("cluster rejects the honest formula certificate: %v", v.Rejected)
	}

	// A fault that makes the labels contradict their own class table is
	// refused when the cluster is built, before any round runs; every other
	// fault must be caught by the first round.
	for _, fault := range certify.FaultNames() {
		bad, err := fx.crt.Corrupt(1, fault)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := distnet.ClusterFingerprint(fx.g, bad, prop.Name(), 2); err != nil {
			if !errors.Is(err, core.ErrRegistryRebuild) {
				t.Fatalf("%s: cluster refused the certificate for another reason: %v", fault, err)
			}
			continue
		}
		cl := startCluster(t, fixture{g: fx.g, crt: bad}, prop.Name(), 2, 0, 0)
		v, rounds, err := cl.coord.RunUntilVerdict(ctx(t), 4)
		if err != nil {
			t.Fatalf("%s: cluster verdict: %v", fault, err)
		}
		if v.Accepted {
			t.Fatalf("%s: cluster accepts a corrupted formula certificate", fault)
		}
		if rounds != 1 {
			t.Errorf("%s: detected after %d rounds, want 1", fault, rounds)
		}
	}
}
