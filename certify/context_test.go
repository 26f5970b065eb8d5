package certify

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancellationProve pins that Prove, ProveBatch, Verify,
// VerifyDistributed and BuildStructure all observe an already-cancelled
// context and return context.Canceled without doing the work. The package's
// CI race job runs this file under -race, so the drained worker pools are
// also checked for clean shutdown.
func TestCancellationProve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Caterpillar(16, 2)

	c, err := New(WithProperties(mustProp(t, "bipartite"), mustProp(t, "acyclic")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ProveBatch(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProveBatch: err=%v, want context.Canceled", err)
	}
	if _, err := c.BuildStructure(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildStructure: err=%v, want context.Canceled", err)
	}
	single, err := New(WithProperty(mustProp(t, "bipartite")))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := single.Prove(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prove: err=%v, want context.Canceled", err)
	}

	// Verification paths need an honest certificate first.
	crt, _, err := single.Prove(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Verify(ctx, g, crt); !errors.Is(err, context.Canceled) {
		t.Fatalf("Verify: err=%v, want context.Canceled", err)
	}
	if err := single.VerifyDistributed(ctx, g, crt); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyDistributed: err=%v, want context.Canceled", err)
	}
}

// TestCancellationMidBatch cancels while a batch's worker pool is running:
// the pool must drain and surface context.Canceled rather than complete.
func TestCancellationMidBatch(t *testing.T) {
	props, err := PropertiesByName("bipartite", "3color", "acyclic", "maxdeg:3", "evenedges")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(WithProperties(props...), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	g := Caterpillar(400, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.ProveBatch(ctx, g)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// Either the batch lost the race and finished, or it was cancelled;
		// a cancelled run must report context.Canceled.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-batch cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
}
