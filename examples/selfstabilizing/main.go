// Self-stabilization scenario (the paper's Section 1 motivation): a network
// maintains a certified invariant; transient faults corrupt label memory;
// the one-round verification detects the corruption so the system can
// re-run the prover. This example runs the loop on the distributed
// verification round (Certifier.VerifyDistributed), injecting every fault
// of the catalog in turn.
//
//	go run ./examples/selfstabilizing
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/certify"
)

func main() {
	ctx := context.Background()
	g := certify.Lobster(6, 1)
	acyclic, err := certify.PropertyByName("acyclic")
	if err != nil {
		log.Fatal(err)
	}
	c, err := certify.New(certify.WithProperty(acyclic), certify.WithMaxLanes(6))
	if err != nil {
		log.Fatal(err)
	}

	cert, stats, err := c.Prove(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network of %d processors certified %q (%d-bit labels)\n",
		g.N(), "spanning structure is a tree", stats.MaxLabelBits)

	if err := c.VerifyDistributed(ctx, g, cert); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady state: accepted=true\n\n")

	for round, fault := range certify.FaultNames() {
		corrupted, err := cert.Corrupt(int64(42+round), fault)
		if err != nil {
			log.Fatalf("fault %v not injectable: %v", fault, err)
		}
		verr := c.VerifyDistributed(ctx, g, corrupted)
		if verr == nil {
			log.Fatalf("round %d: fault %v went UNDETECTED — soundness violated", round, fault)
		}
		var ve *certify.VerifyError
		if !errors.As(verr, &ve) {
			log.Fatal(verr)
		}
		fmt.Printf("round %d: transient fault %-16s detected by processors %v\n",
			round, fault, ve.Rejected)

		// Recovery: the self-stabilizing system re-runs the prover.
		cert, _, err = c.Prove(ctx, g)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.VerifyDistributed(ctx, g, cert); err != nil {
			log.Fatalf("round %d: recovery failed: %v", round, err)
		}
		fmt.Printf("round %d: re-proved, network stable again\n", round)
	}
	fmt.Println("\nevery injected fault was detected within one verification round")
}
