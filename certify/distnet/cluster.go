package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/certify"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/msoc"
)

// PartOf returns the partition hosting vertex v under the canonical balanced
// block partition of n vertices into parts contiguous blocks (block sizes
// differ by at most one, lower-numbered blocks take the larger size). Every
// process of a cluster derives the same assignment from (n, parts) alone —
// no placement metadata crosses the wire.
func PartOf(v, n, parts int) int {
	if parts <= 1 || n <= 0 || v < 0 || v >= n {
		return 0
	}
	if parts > n {
		parts = n
	}
	size, extra := n/parts, n%parts
	// The first extra blocks have size+1 vertices.
	if v < extra*(size+1) {
		return v / (size + 1)
	}
	return extra + (v-extra*(size+1))/size
}

// ClusterFingerprint identifies one cluster configuration: the certified
// graph (topology, identifiers, marked set), the property under
// verification, the partition count, and the wire protocol version. Peers
// and coordinators exchange it in their hello frames, so a process launched
// against the wrong graph, certificate, property, or partition count is
// refused at handshake instead of corrupting rounds.
func ClusterFingerprint(g *certify.Graph, crt *certify.Certificate, property string, parts int) (uint64, error) {
	cl, err := buildCluster(g, crt, property, parts)
	if err != nil {
		return 0, err
	}
	return cl.fp, nil
}

// ResolveProperty returns the property a cluster over the certificate
// verifies: name itself when non-empty (it must be carried by the
// certificate), else the certificate's first property.
func ResolveProperty(crt *certify.Certificate, name string) (string, error) {
	if crt == nil {
		return "", errors.New("distnet: nil certificate")
	}
	props := crt.Properties()
	if len(props) == 0 {
		return "", errors.New("distnet: certificate carries no properties")
	}
	if name == "" {
		return props[0], nil
	}
	for _, p := range props {
		if p == name {
			return name, nil
		}
	}
	return "", fmt.Errorf("distnet: certificate does not carry property %q (has %v)", name, props)
}

// cluster is the shared, immutable configuration every node and coordinator
// of one deployment derives locally from (graph, certificate, property,
// parts): topology, scheme with reconstructed registry, the pristine honest
// labeling, and the cluster fingerprint.
type cluster struct {
	g        *graph.Graph
	cfg      *cert.Config
	scheme   *core.Scheme
	pristine *core.Labeling // the certificate's honest labeling, never mutated
	property string
	parts    int
	fp       uint64
}

// buildCluster validates the (graph, certificate, property, parts) tuple and
// derives the shared cluster state.
func buildCluster(pub *certify.Graph, crt *certify.Certificate, property string, parts int) (*cluster, error) {
	if pub == nil {
		return nil, errors.New("distnet: nil graph")
	}
	if crt == nil {
		return nil, errors.New("distnet: nil certificate")
	}
	if parts < 1 || parts > maxWireParts {
		return nil, fmt.Errorf("distnet: partition count %d out of range [1, %d]", parts, maxWireParts)
	}
	property, err := ResolveProperty(crt, property)
	if err != nil {
		return nil, err
	}
	gfp, err := pub.Fingerprint()
	if err != nil {
		return nil, err
	}
	if gfp != crt.Fingerprint() {
		return nil, fmt.Errorf("distnet: certificate is for configuration %016x, graph is %016x", crt.Fingerprint(), gfp)
	}

	// Rebuild the internal topology and configuration from the public graph.
	edges := pub.Edges()
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.NewEdge(e[0], e[1])
	}
	g, err := graph.FromEdges(pub.N(), es)
	if err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}
	cfg := cert.NewConfig(g)
	if marked := pub.Marked(); len(marked) > 0 {
		vs := make([]graph.Vertex, len(marked))
		for i, v := range marked {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("distnet: marked vertex %d out of range", v)
			}
			vs[i] = v
		}
		cfg.MarkSet(vs)
	}

	// Decode the honest labeling from the certificate's canonical encodings
	// and reconstruct the verification scheme's class registry from it — the
	// same label-content-only reconstruction wire certificates use. One
	// decoder for all labels shares repeated entries by pointer; fault
	// injection is copy-on-write, so shared entries are never written.
	blobs, ok := crt.EncodedLabels(property)
	if !ok {
		return nil, fmt.Errorf("distnet: certificate does not carry property %q", property)
	}
	if len(blobs) != g.M() {
		return nil, fmt.Errorf("distnet: labeling covers %d edges, graph has %d", len(blobs), g.M())
	}
	pristine := &core.Labeling{Edges: make(map[graph.Edge]*core.EdgeLabel, len(blobs))}
	var dec core.Decoder
	for _, b := range blobs {
		el, err := dec.DecodeLabel(b.Data, b.Bits)
		if err != nil {
			return nil, fmt.Errorf("distnet: label for edge {%d,%d}: %w", b.U, b.V, err)
		}
		pristine.Edges[graph.NewEdge(b.U, b.V)] = el
	}
	prop, err := msoc.ByName(property)
	if err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}
	scheme := core.NewScheme(prop, crt.MaxLanes())
	if err := scheme.RebuildRegistry(pristine); err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}

	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], gfp)
	h.Write(buf[:])
	h.Write([]byte{wireVersion})
	h.Write([]byte(property))
	binary.BigEndian.PutUint64(buf[:], uint64(parts))
	h.Write(buf[:])

	return &cluster{
		g:        g,
		cfg:      cfg,
		scheme:   scheme,
		pristine: pristine,
		property: property,
		parts:    parts,
		fp:       h.Sum64(),
	}, nil
}

// cutEdges returns the edges between partition a's block and partition b's
// block, oriented with the a-side endpoint first.
func (cl *cluster) cutEdges(a, b int) []graph.Edge {
	var out []graph.Edge
	n := cl.g.N()
	for v := 0; v < n; v++ {
		if PartOf(v, n, cl.parts) != a {
			continue
		}
		for _, w := range cl.g.Neighbors(v) {
			if PartOf(w, n, cl.parts) == b {
				out = append(out, graph.Edge{U: v, V: w})
			}
		}
	}
	return out
}

// localVertices returns partition p's vertex block.
func (cl *cluster) localVertices(p int) []graph.Vertex {
	var out []graph.Vertex
	for v := 0; v < cl.g.N(); v++ {
		if PartOf(v, cl.g.N(), cl.parts) == p {
			out = append(out, v)
		}
	}
	return out
}

// localMemory returns partition p's label memory: a fresh map holding the
// pristine labels of every edge with at least one endpoint in p's block.
// Labels are shared pointers into the pristine labeling; fault injection is
// copy-on-write, so pristine stays honest for Heal.
func (cl *cluster) localMemory(p int) map[graph.Edge]*core.EdgeLabel {
	mem := make(map[graph.Edge]*core.EdgeLabel)
	for e, l := range cl.pristine.Edges {
		if PartOf(e.U, cl.g.N(), cl.parts) == p || PartOf(e.V, cl.g.N(), cl.parts) == p {
			mem[e] = l
		}
	}
	return mem
}
