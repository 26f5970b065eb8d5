// Package distnet runs proof-labeling-scheme verification as a real
// distributed system: the certified graph's vertices are partitioned into
// contiguous blocks, each block is hosted by a Node (one per OS process in a
// deployment, cmd/vertexd), and nodes exchange their copies of cut-edge
// labels over TCP each round using the certificate's canonical label
// encoding. Darts between vertices of the same partition short-circuit in
// memory. A vertex rejects when a peer's copy of a shared label differs
// from its own copy's encoding in any bit, or when either copy is missing
// (asymmetric memory corruption is exactly such a disagreement); peer
// copies are compared as bytes and never decoded. Otherwise the vertex runs
// the Theorem 1 verifier on its own copies, so a clean cluster reaches the
// verdict certify.Verify reaches on the same labeling.
//
// A Coordinator numbers rounds, broadcasts round starts over per-partition
// control connections, and aggregates per-partition verdicts into a global
// accept/reject. Rounds are atomic: if any partition cannot gather its
// peers' label copies in time — a process died, a frame was torn, a
// connection dropped — the round is abandoned and re-run, never scored from
// a partial exchange. Label frames carry their round number; stragglers and
// duplicates from earlier rounds are discarded on receipt. Each node also
// exposes a fault controller through which the coordinator corrupts live
// label memory (the internal/dist fault catalog), arms one-shot transport
// faults (drop, duplicate, reorder, truncate-frame), and heals. DESIGN.md §9
// specifies the wire protocol.
//
// # Quickstart: two-process verification
//
// Process A hosts partition 0, process B partition 1. Both load the same
// graph and certificate (a Certifier's Prove, or a saved .plsc via
// Certificate.UnmarshalBinary and the graph via graphio.Read):
//
//	// Process A (and B, with Part: 1):
//	node, err := distnet.NewNode(distnet.NodeConfig{
//		Graph:       g,
//		Certificate: crt,
//		Part:        0,
//		Parts:       2,
//		Addr:        "127.0.0.1:7001",
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer node.Close()
//	// Both processes list every partition's address, in partition order.
//	if err := node.Start([]string{"127.0.0.1:7001", "127.0.0.1:7002"}); err != nil {
//		log.Fatal(err)
//	}
//
// Any process (or a third) drives rounds:
//
//	coord, err := distnet.NewCoordinator(distnet.CoordinatorConfig{
//		Graph:       g,
//		Certificate: crt,
//		Addrs:       []string{"127.0.0.1:7001", "127.0.0.1:7002"},
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer coord.Close()
//	v, rounds, err := coord.RunUntilVerdict(ctx, 8)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("accepted=%v after %d round(s)\n", v.Accepted, rounds)
//
// Every process derives the partition assignment from (n, parts) alone
// (PartOf) and a cluster fingerprint from the graph, property, partition
// count, and wire version; the fingerprint is exchanged at handshake, so a
// process launched against a mismatched configuration is refused instead of
// corrupting rounds.
package distnet
