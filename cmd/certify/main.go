// Command certify generates a bounded-pathwidth graph, runs the Theorem 1
// prover for one or more MSO₂ properties through the public certify API,
// verifies the certificate at every vertex (optionally through the
// distributed verification round, -dist), and reports label statistics.
// With a comma-separated property list the structure is built once and
// every property is certified against it, in one multi-property
// certificate. Certificates can be saved to disk (-out) and loaded for
// verification by a different process (-in) — the prove-once /
// verify-everywhere flow of the wire format:
//
//	certify -graph caterpillar -n 64 -prop bipartite
//	certify -graph cycle -n 33 -prop 3color -dist
//	certify -graph path -n 40 -formula '(forall u V (forall v V (-> (adj u v) (not (= u v)))))'
//	certify -graph path -n 64 -prop bipartite,3color,acyclic -dist
//	certify -graph interval -n 100 -width 3 -prop matching -out proof.plsc
//	certify -graph interval -n 100 -width 3 -prop matching -in proof.plsc
//	certify -graph caterpillar -n 32 -prop acyclic -corrupt flip-class
//	certify -graph-file g.txt -prop bipartite        # edge-list or DIMACS file
//	certify -graph ladder -n 20 -graph-out g.txt     # export for certifyd
//
// Graph files are read and written through the certify/graphio formats —
// the same strictly validated readers the certifyd service ingests with.
//
// Exit codes separate the failure classes: 0 success (including -h), 2 when
// a requested property does not hold on the graph (nothing to certify —
// completeness is vacuous), 3 when a certificate is rejected by
// verification, and 1 for every other error: unknown properties or flags,
// unreadable or malformed graph and certificate files, wrong graph, I/O.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/certify"
	"repro/certify/graphio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "certify:", err)
		}
		os.Exit(exitCode(err))
	}
}

// exitCode maps the public error taxonomy onto the documented exit codes.
// Only the two semantic outcomes get distinguished codes — a property that
// fails on the graph (2) and a certificate some vertex rejects (3); every
// I/O, flag, parse, or format error is a plain 1 so scripts never mistake
// an unreadable file for a refuted property.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, certify.ErrPropertyFails):
		return 2
	case errors.Is(err, certify.ErrVerifyFailed):
		return 3
	default:
		return 1
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	var (
		graphKind = fs.String("graph", "caterpillar", "graph family: path|cycle|caterpillar|lobster|ladder|spider|interval")
		n         = fs.Int("n", 32, "approximate vertex count")
		width     = fs.Int("width", 2, "interval-graph width (for -graph interval)")
		propNames = fs.String("prop", "bipartite",
			"comma-separated properties: "+strings.Join(certify.Names(), "|"))
		formula   = fs.String("formula", "", "certify this MSO₂ formula, compiled on the fly (mutually exclusive with -prop)")
		markEvery = fs.Int("mark", 2, "for input-set properties: mark every k-th vertex as X")
		lanesMax  = fs.Int("lanes", certify.DefaultMaxLanes, "lane budget (certifies pathwidth ≤ lanes-1)")
		paper     = fs.Bool("paper", false, "use the Proposition 4.6 recursive lane construction")
		distFlag  = fs.Bool("dist", false, "verify through the distributed round (Certifier.VerifyDistributed); in one process every vertex reads the same labels, so it is the plain verifier's pass")
		corrupt   = fs.String("corrupt", "", "inject a fault after proving: "+strings.Join(certify.FaultNames(), "|"))
		seed      = fs.Int64("seed", 1, "random seed (interval generation and fault placement)")
		outPath   = fs.String("out", "", "write the certificate to this file after proving")
		inPath    = fs.String("in", "", "load a certificate from this file and verify it (skips proving; pass the same -graph/-n/-prop/-mark flags the certificate was issued with)")
		graphFile = fs.String("graph-file", "", "read the graph from this file instead of generating one (see -format)")
		format    = fs.String("format", "auto", "graph file format: auto|edgelist|dimacs")
		graphOut  = fs.String("graph-out", "", "also write the graph to this file (edge list unless -format dimacs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	if *inPath != "" && (*corrupt != "" || *outPath != "") {
		return errors.New("-in verifies an existing certificate; it cannot be combined with -corrupt or -out")
	}

	var (
		props []certify.Property
		err   error
	)
	if *formula != "" {
		explicitProp := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "prop" {
				explicitProp = true
			}
		})
		if explicitProp {
			return errors.New("-formula and -prop are mutually exclusive; pass one or the other")
		}
		p, err := certify.FormulaProperty(*formula)
		if err != nil {
			return err
		}
		props = []certify.Property{p}
	} else if props, err = certify.PropertiesByName(certify.SplitPropList(*propNames)...); err != nil {
		return err
	}
	if len(props) == 0 {
		return errors.New("no properties requested")
	}
	ioFormat, err := graphio.ParseFormat(*format)
	if err != nil {
		return err
	}
	var g *certify.Graph
	kind := *graphKind
	if *graphFile != "" {
		if g, err = loadGraph(*graphFile, ioFormat); err != nil {
			return err
		}
		kind = *graphFile
	} else if g, err = makeGraph(*graphKind, *n, *width, *seed); err != nil {
		return err
	}
	// Auto-mark X for input-set properties unless the graph file already
	// carries a marked set.
	if needsMarkSet(props) && len(g.Marked()) == 0 {
		var marked []int
		for v := 0; v < g.N(); v += max(1, *markEvery) {
			marked = append(marked, v)
		}
		g.Mark(marked...)
		fmt.Printf("marked X: every %d-th vertex (%d vertices)\n", *markEvery, len(marked))
	}
	fmt.Printf("graph: %s, n=%d, m=%d\n", kind, g.N(), g.M())
	if *graphOut != "" {
		if err := saveGraph(*graphOut, g, ioFormat); err != nil {
			return err
		}
		fmt.Printf("wrote graph: %s\n", *graphOut)
	}

	if *inPath != "" {
		return verifyFromFile(ctx, g, *inPath, *distFlag)
	}

	c, err := certify.New(
		certify.WithProperties(props...),
		certify.WithMaxLanes(*lanesMax),
		certify.WithPaperConstruction(*paper),
	)
	if err != nil {
		return err
	}
	fmt.Printf("properties: %s\n", strings.Join(c.Properties(), ", "))
	crt, stats, err := c.ProveBatch(ctx, g)
	if err != nil {
		return err
	}
	fmt.Printf("structure: lanes=%d virtual=%d congestion=%d depth=%d\n",
		stats.Lanes, stats.VirtualEdges, stats.Congestion, stats.HierarchyDepth)
	failed := map[string]bool{}
	for _, name := range stats.Failed {
		failed[name] = true
		fmt.Printf("prover %-16s property does NOT hold — nothing to certify (completeness vacuous)\n", name+":")
	}
	for _, p := range props {
		if st, ok := stats.PerProperty[p.Name()]; ok {
			fmt.Printf("prover %-16s ok — classes=%d max-label=%d bits\n",
				p.Name()+":", st.RegistryClasses, st.MaxLabelBits)
		}
	}
	var failErr error
	if len(stats.Failed) > 0 {
		failErr = fmt.Errorf("%w: %s", certify.ErrPropertyFails, strings.Join(stats.Failed, ", "))
	}
	if crt == nil {
		return failErr
	}

	if *corrupt != "" {
		crt, err = crt.Corrupt(*seed, *corrupt)
		if err != nil {
			return err
		}
		fmt.Printf("injected fault: %s (into every labeling)\n", *corrupt)
	}

	if *outPath != "" {
		blob, err := crt.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote certificate: %s (%d bytes, %d properties)\n", *outPath, len(blob), len(crt.Properties()))
	}

	if err := verifyAndReport(ctx, c, g, crt, *distFlag, *corrupt != ""); err != nil {
		return err
	}
	return failErr
}

// verifyFromFile is the -in flow: a different process loads the certificate
// blob and verifies it against the locally regenerated configuration.
func verifyFromFile(ctx context.Context, g *certify.Graph, path string, distributed bool) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var crt certify.Certificate
	if err := crt.UnmarshalBinary(blob); err != nil {
		return err
	}
	fmt.Printf("loaded certificate: %s (%d bytes, properties: %s, lane budget %d)\n",
		path, len(blob), strings.Join(crt.Properties(), ", "), crt.MaxLanes())
	c, err := certify.New() // certificates are self-describing
	if err != nil {
		return err
	}
	return verifyAndReport(ctx, c, g, &crt, distributed, false)
}

// verifyAndReport runs the verification round and prints per-property
// verdicts. With expectReject (a fault was injected), a rejection is the
// demonstrated outcome and an acceptance is a soundness failure.
func verifyAndReport(ctx context.Context, c *certify.Certifier, g *certify.Graph, crt *certify.Certificate, distributed, expectReject bool) error {
	var err error
	if distributed {
		err = c.VerifyDistributed(ctx, g, crt)
	} else {
		err = c.Verify(ctx, g, crt)
	}
	var ve *certify.VerifyError
	switch {
	case err == nil:
		for _, name := range crt.Properties() {
			fmt.Printf("verifier %-14s ACCEPT at every vertex\n", name+":")
		}
		if expectReject {
			return errors.New("injected fault went UNDETECTED — soundness violated")
		}
		return nil
	case errors.As(err, &ve):
		fmt.Printf("verifier %-14s REJECT at %d vertices %v\n", ve.Property+":", len(ve.Rejected), ve.Rejected)
		if expectReject {
			fmt.Println("fault detected within one verification round")
			return nil
		}
		return err
	default:
		return err
	}
}

// needsMarkSet reports whether any requested property reads the input set X.
func needsMarkSet(props []certify.Property) bool {
	for _, p := range props {
		if certify.ReadsInputSet(p) {
			return true
		}
	}
	return false
}

// loadGraph reads a graph file through the strict graphio readers.
func loadGraph(path string, format graphio.Format) (*certify.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graphio.Read(f, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// saveGraph writes the graph in the chosen interchange format (auto means
// the edge-list format, which can carry the marked set).
func saveGraph(path string, g *certify.Graph, format graphio.Format) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graphio.Write(f, g, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func makeGraph(kind string, n, width int, seed int64) (*certify.Graph, error) {
	switch kind {
	case "path":
		return certify.Path(n), nil
	case "cycle":
		return certify.Cycle(n), nil
	case "caterpillar":
		return certify.Caterpillar(max(1, n/2), 1), nil
	case "lobster":
		return certify.Lobster(max(1, n/3), 1), nil
	case "ladder":
		return certify.Ladder(max(1, n/2)), nil
	case "spider":
		return certify.Spider(max(1, n/3)), nil
	case "interval":
		return certify.Interval(seed, n, width), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}
