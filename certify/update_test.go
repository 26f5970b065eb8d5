package certify

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestUpdater(t *testing.T, g *Graph, maxLanes int, names ...string) (*Certifier, *Updater) {
	t.Helper()
	props, err := PropertiesByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...), WithMaxLanes(maxLanes))
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.NewUpdater(context.Background(), g)
	if err != nil {
		t.Fatalf("NewUpdater: %v", err)
	}
	return c, u
}

// requireCertEqual asserts two certificates marshal byte-identically.
func requireCertEqual(t *testing.T, got, want *Certificate, what string) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal got: %v", what, err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal want: %v", what, err)
	}
	if string(gb) != string(wb) {
		t.Fatalf("%s: certificate bytes diverge from fresh prove (%d vs %d bytes)", what, len(gb), len(wb))
	}
}

// TestUpdaterMatchesFreshProve checks every generation an Updater commits
// against a fresh prove of the edited graph, at parallelism 1 (every pool
// loop inline) and 2 (the reuse path on goroutines). Ladder(200) is large
// enough for several 64-node pool chunks per sweep level.
func TestUpdaterMatchesFreshProve(t *testing.T) {
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
		{"ladder200", func() *Graph { return Ladder(200) }, []string{"bipartite", "maxdeg:3"}, [][]Edit{
			{{Op: EditRemove, U: 200, V: 201}},
			{{Op: EditRemove, U: 100, V: 101}, {Op: EditAdd, U: 200, V: 201}},
			{{Op: EditRemove, U: 300, V: 301}},
		}},
	}
	for _, tc := range cases {
		for _, parallelism := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", tc.name, parallelism), func(t *testing.T) {
				props, err := PropertiesByName(tc.props...)
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(WithProperties(props...), WithMaxLanes(4), WithParallelism(parallelism))
				if err != nil {
					t.Fatal(err)
				}
				u, err := c.NewUpdater(ctx, tc.g())
				if err != nil {
					t.Fatalf("NewUpdater: %v", err)
				}
				for i, batch := range tc.edits {
					us, err := u.Update(ctx, batch...)
					if err != nil {
						t.Fatalf("update %d: %v", i, err)
					}
					for _, name := range tc.props {
						if us.PerProperty[name] == nil {
							t.Fatalf("update %d: missing stats for %s", i, name)
						}
					}
					crt, err := u.Certificate()
					if err != nil {
						t.Fatalf("certificate %d: %v", i, err)
					}
					// The engine proves at the certifier's parallelism.
					for name, s := range crt.schemes {
						if s.Workers != parallelism {
							t.Fatalf("update %d: %s proved with Workers=%d, want %d", i, name, s.Workers, parallelism)
						}
					}
					snap := u.Graph()
					if err := c.Verify(ctx, snap, crt); err != nil {
						t.Fatalf("verify after update %d: %v", i, err)
					}
					fresh, _, err := c.ProveBatch(ctx, snap)
					if err != nil {
						t.Fatalf("fresh prove %d: %v", i, err)
					}
					requireCertEqual(t, crt, fresh, "after update")
				}
			})
		}
	}
}

func TestUpdaterTypedErrorsAndRollback(t *testing.T) {
	ctx := context.Background()
	c, u := newTestUpdater(t, Ladder(8), 4, "bipartite")

	before, err := u.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		edits []Edit
		want  error
	}{
		{"remove absent", []Edit{{Op: EditRemove, U: 0, V: 9}}, ErrBadEdit},
		{"add present", []Edit{{Op: EditAdd, U: 0, V: 1}}, ErrBadEdit},
		{"out of range", []Edit{{Op: EditAdd, U: 0, V: 99}}, ErrBadEdit},
		{"unknown op", []Edit{{Op: EditOp(9), U: 0, V: 1}}, ErrBadEdit},
		{"disconnects", []Edit{{Op: EditRemove, U: 0, V: 1}, {Op: EditRemove, U: 0, V: 2}}, ErrBadEdit},
		{"odd cycle", []Edit{{Op: EditAdd, U: 0, V: 3}}, ErrPropertyFails},
	}
	for _, tc := range cases {
		if _, err := u.Update(ctx, tc.edits...); !errors.Is(err, tc.want) {
			t.Errorf("%s: err=%v, want %v", tc.name, err, tc.want)
		}
		after, err := u.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		requireCertEqual(t, after, before, tc.name+" rollback")
	}
	// The rolled-back state still verifies and still matches a fresh prove.
	snap := u.Graph()
	if err := c.Verify(ctx, snap, before); err != nil {
		t.Fatalf("verify after rollbacks: %v", err)
	}
	fresh, _, err := c.ProveBatch(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	requireCertEqual(t, before, fresh, "after rollbacks")
}

func TestUpdaterFallbackObservable(t *testing.T) {
	ctx := context.Background()
	c, u := newTestUpdater(t, Path(12), 4, "bipartite")

	if u.Fallbacks() != 0 {
		t.Fatalf("fallbacks=%d before any update", u.Fallbacks())
	}
	// A chord between the path's endpoints cannot be covered by the retained
	// decomposition of a path: the engine must fall back, observably.
	us, err := u.Update(ctx, Edit{Op: EditAdd, U: 0, V: 11})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if !us.Fallback {
		t.Fatalf("uncovered chord did not report Fallback; stats %+v", us)
	}
	if u.Fallbacks() != 1 {
		t.Fatalf("fallbacks=%d after fallback update, want 1", u.Fallbacks())
	}
	crt, err := u.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := c.ProveBatch(ctx, u.Graph())
	if err != nil {
		t.Fatal(err)
	}
	requireCertEqual(t, crt, fresh, "after fallback")
}

func TestUpdaterPrivateCopy(t *testing.T) {
	ctx := context.Background()
	g := Ladder(6)
	_, u := newTestUpdater(t, g, 4, "bipartite")

	if _, err := u.Update(ctx, Edit{Op: EditRemove, U: 2, V: 3}); err != nil {
		t.Fatalf("update: %v", err)
	}
	// The caller's graph is untouched; the engine's snapshot reflects the edit.
	if g.M() != Ladder(6).M() {
		t.Fatalf("caller's graph mutated: m=%d", g.M())
	}
	if u.Graph().M() != g.M()-1 {
		t.Fatalf("updater graph m=%d, want %d", u.Graph().M(), g.M()-1)
	}
}

// TestUpdaterConcurrentUpdateVerify hammers one Updater with concurrent
// edits, certificate draws, verifications, and marshals — the certifyd PATCH
// workload (one stored graph, updates racing reads). Run under -race in CI.
// On Ladder(200) the re-proves reuse the previous generation's entries on
// several pool chunks while other goroutines marshal and verify that
// generation's certificate.
func TestUpdaterConcurrentUpdateVerify(t *testing.T) {
	for _, rungs := range []int{8, 200} {
		t.Run(fmt.Sprintf("ladder%d", rungs), func(t *testing.T) {
			hammerUpdater(t, Ladder(rungs))
		})
	}
}

func hammerUpdater(t *testing.T, g *Graph) {
	ctx := context.Background()
	c, u := newTestUpdater(t, g, 4, "bipartite")

	const iters = 20
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := u.Update(ctx, Edit{Op: EditRemove, U: 2, V: 3}); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
			if _, err := u.Update(ctx, Edit{Op: EditAdd, U: 2, V: 3}); err != nil {
				t.Errorf("add: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			crt, err := u.Certificate()
			if err != nil {
				t.Errorf("certificate: %v", err)
				return
			}
			// Each certificate must verify against the graph snapshot of the
			// generation it was drawn from; Graph() may already be newer, so
			// retry on ErrWrongGraph (the snapshot moved) but never accept a
			// rejection.
			if err := c.Verify(ctx, u.Graph(), crt); err != nil && !errors.Is(err, ErrWrongGraph) {
				t.Errorf("verify: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			crt, err := u.Certificate()
			if err != nil {
				t.Errorf("certificate: %v", err)
				return
			}
			if _, err := crt.MarshalBinary(); err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
