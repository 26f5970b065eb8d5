// Package certify is the public entry point to the library: O(log n)-bit
// proof labeling schemes for MSO₂ properties on graphs of bounded pathwidth
// ("Optimal local certification on graphs of bounded pathwidth", Baterisna &
// Chang, PODC 2025, arXiv:2502.00676).
//
// A Certifier is configured once with functional options and then proves and
// verifies certificates:
//
//	prop, _ := certify.PropertyByName("bipartite")
//	c, _ := certify.New(certify.WithProperty(prop))
//	cert, stats, _ := c.Prove(ctx, certify.Caterpillar(10, 2))
//	err := c.Verify(ctx, g, cert) // nil: every vertex accepted
//
// Certificates marshal to a versioned binary wire format (MarshalBinary /
// UnmarshalBinary), so a labeling proved once can be stored, shipped, and
// verified by a different process — the prove-once / verify-everywhere
// deployment the paper's self-stabilization motivation calls for. All
// methods take a context.Context; cancellation reaches the internal worker
// pools and returns ctx.Err() promptly.
package certify

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/interval"
)

// DefaultMaxLanes is the default lane budget: certificates prove
// φ ∧ (pathwidth ≤ DefaultMaxLanes−1), enough for every built-in family.
const DefaultMaxLanes = core.DefaultMaxLanes

// Certifier proves and verifies certificates for a fixed set of properties
// under a fixed lane budget. A Certifier is immutable after New and safe for
// concurrent use.
type Certifier struct {
	props       []Property
	maxLanes    int
	paper       bool
	parallelism int
}

// Option configures a Certifier.
type Option func(*Certifier) error

// WithProperty adds one property to the certifier. Prove requires exactly
// one configured property; ProveBatch accepts any number ≥ 1.
func WithProperty(p Property) Option {
	return func(c *Certifier) error {
		if !p.valid() {
			return wrapErr(ErrUnknownProperty, errors.New("zero-value Property"))
		}
		c.props = append(c.props, p)
		return nil
	}
}

// WithFormula compiles an MSO₂ formula (s-expression syntax, see
// mso.Parse) and adds the compiled property, as if by
// WithProperty(FormulaProperty(src)). Parse and compile failures satisfy
// errors.Is(err, ErrBadFormula).
func WithFormula(src string) Option {
	return func(c *Certifier) error {
		p, err := FormulaProperty(src)
		if err != nil {
			return err
		}
		return WithProperty(p)(c)
	}
}

// WithProperties adds several properties in order.
func WithProperties(ps ...Property) Option {
	return func(c *Certifier) error {
		for _, p := range ps {
			if err := WithProperty(p)(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithMaxLanes sets the lane budget k: certificates prove
// φ ∧ (pathwidth ≤ k−1), and proving fails with ErrTooWide on graphs whose
// lane partition exceeds it. The default is DefaultMaxLanes; budgets above
// MaxLaneBudget are rejected because the wire format could not carry the
// resulting certificates.
func WithMaxLanes(k int) Option {
	return func(c *Certifier) error {
		if k < 1 {
			return fmt.Errorf("%w: lane budget must be ≥ 1, got %d", ErrBadConfig, k)
		}
		if k > MaxLaneBudget {
			return fmt.Errorf("%w: lane budget %d exceeds the wire format's maximum %d", ErrBadConfig, k, MaxLaneBudget)
		}
		c.maxLanes = k
		return nil
	}
}

// WithPaperConstruction selects the Proposition 4.6 recursive lane
// construction (worst-case congestion ≤ H(width)) instead of the default
// greedy first-fit partition with shortest-path embeddings.
func WithPaperConstruction(on bool) Option {
	return func(c *Certifier) error {
		c.paper = on
		return nil
	}
}

// WithParallelism bounds the worker count of every pooled stage the
// certifier runs — the structure build (lane embedding, hierarchy
// validation, artifact derivation), the number of property passes ProveBatch
// and an Updater run at once, each pass's class sweep, entry and label
// assembly, and the per-vertex verifier. 0 (the default) means GOMAXPROCS;
// 1 runs everything inline on the calling goroutine, one property after
// another. Output never depends on the value: certificates are
// byte-identical and verification verdict-identical at every parallelism
// level.
func WithParallelism(n int) Option {
	return func(c *Certifier) error {
		if n < 0 {
			return fmt.Errorf("%w: parallelism must be ≥ 0, got %d", ErrBadConfig, n)
		}
		c.parallelism = n
		return nil
	}
}

// New builds a Certifier from the options. A Certifier with no properties is
// valid for Verify/VerifyDistributed (certificates are self-describing);
// Prove and ProveBatch require configured properties.
func New(opts ...Option) (*Certifier, error) {
	c := &Certifier{maxLanes: DefaultMaxLanes}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for _, p := range c.props {
		name := p.Name()
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate property %q", ErrBadConfig, name)
		}
		seen[name] = true
	}
	return c, nil
}

// Properties returns the configured properties' names in order.
func (c *Certifier) Properties() []string {
	out := make([]string, len(c.props))
	for i, p := range c.props {
		out[i] = p.Name()
	}
	return out
}

// Stats reports measurable quantities of one property's proving run.
type Stats struct {
	// Lanes is the size of the lane partition (pathwidth ≤ Lanes−1).
	Lanes int
	// VirtualEdges counts the completion edges embedded over real paths.
	VirtualEdges int
	// Congestion is the embedding congestion of the structure.
	Congestion int
	// HierarchyDepth is the hierarchical decomposition's depth (≤ 2k).
	HierarchyDepth int
	// RegistryClasses is the number of distinct homomorphism classes used.
	RegistryClasses int
	// MaxLabelBits is the proof size: the largest edge label in bits.
	MaxLabelBits int
}

// BatchStats reports one multi-property batch: the shared structure's
// quantities plus each certified property's stats and the properties that
// do not hold.
type BatchStats struct {
	Lanes          int
	VirtualEdges   int
	Congestion     int
	HierarchyDepth int
	// PerProperty holds each certified property's stats, identical to what
	// an independent Prove of that property would report.
	PerProperty map[string]*Stats
	// Failed lists (in batch order) the properties the configuration does
	// not satisfy. They are absent from the certificate; the rest of the
	// batch proceeds.
	Failed []string
}

func statsFrom(st *core.Stats) *Stats {
	return &Stats{
		Lanes:           st.Lanes,
		VirtualEdges:    st.VirtualEdges,
		Congestion:      st.Congestion,
		HierarchyDepth:  st.HierarchyDepth,
		RegistryClasses: st.RegistryClasses,
		MaxLabelBits:    st.MaxLabelBits,
	}
}

// translateProveErr maps internal proving failures onto the public taxonomy.
func translateProveErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrPropertyFails):
		return wrapErr(ErrPropertyFails, err)
	case errors.Is(err, core.ErrTooManyLanes), errors.Is(err, interval.ErrTooLarge):
		return wrapErr(ErrTooWide, err)
	case errors.Is(err, core.ErrDisconnected):
		return wrapErr(ErrDisconnected, err)
	case errors.Is(err, core.ErrBadEdit):
		return wrapErr(ErrBadEdit, err)
	default:
		return err
	}
}

// algebras returns the configured properties' algebras and, aligned with
// them, the memos their schemes evaluate through.
func (c *Certifier) algebras() ([]algebra.Property, []*core.Memo) {
	props := make([]algebra.Property, len(c.props))
	memos := make([]*core.Memo, len(c.props))
	for i, p := range c.props {
		props[i], memos[i] = p.p, p.algebraMemo()
	}
	return props, memos
}

// property returns the configured property with the given name.
func (c *Certifier) property(name string) (Property, bool) {
	for _, p := range c.props {
		if p.name == name {
			return p, true
		}
	}
	return Property{}, false
}

// newBatch assembles the core batch for the certifier's property set.
func (c *Certifier) newBatch() (*core.Batch, error) {
	if len(c.props) == 0 {
		return nil, fmt.Errorf("%w: no properties configured (use WithProperty)", ErrBadConfig)
	}
	props, memos := c.algebras()
	return core.NewBatchMemo(props, memos, core.BatchOptions{
		MaxLanes:    c.maxLanes,
		Parallelism: c.parallelism,
	})
}

// Prove certifies the certifier's single configured property on the graph
// and returns the certificate with the run's stats. It fails with
// ErrPropertyFails when the property does not hold (nothing to certify),
// ErrTooWide when the graph exceeds the lane budget, ErrDisconnected when
// it is empty or disconnected, and ctx.Err() on cancellation.
func (c *Certifier) Prove(ctx context.Context, g *Graph) (*Certificate, *Stats, error) {
	if len(c.props) != 1 {
		return nil, nil, fmt.Errorf("%w: Prove needs exactly one configured property, have %d (use ProveBatch)", ErrBadConfig, len(c.props))
	}
	crt, bst, err := c.ProveBatch(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	name := c.props[0].Name()
	if len(bst.Failed) > 0 {
		return nil, nil, wrapErr(ErrPropertyFails, fmt.Errorf("property %s", name))
	}
	return crt, bst.PerProperty[name], nil
}

// ProveBatch certifies every configured property on the graph against one
// shared structure (the property-independent pipeline runs once; each
// property then runs only its algebra sweep, at most WithParallelism
// properties at a time). Properties that do not hold are reported in
// BatchStats.Failed and omitted from the certificate; if no property holds,
// the certificate is nil. Labelings are byte-identical to independent Prove
// runs of each property.
func (c *Certifier) ProveBatch(ctx context.Context, g *Graph) (*Certificate, *BatchStats, error) {
	st, err := c.BuildStructure(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	return c.ProveBatchOn(ctx, st)
}

// Verify checks the certificate against the graph: every property, at every
// vertex, on a worker pool sized by WithParallelism (1 runs inline). It
// returns nil when all vertices accept, ErrWrongGraph when the certificate
// was issued for a different configuration, a *VerifyError (matching
// ErrVerifyFailed) naming the rejecting vertices otherwise, and ctx.Err()
// on cancellation. Certificates decoded from the wire verify exactly like
// freshly proved ones: the class registry is reconstructed from the labels.
func (c *Certifier) Verify(ctx context.Context, g *Graph, crt *Certificate) error {
	cfg, err := c.bindCertificate(g, crt)
	if err != nil {
		return err
	}
	for _, name := range crt.props {
		// A copy of the scheme carries the certifier's worker bound (a
		// Scheme holds scalars and pointers to its registry and memo,
		// which the verifier's pool already shares across goroutines).
		scheme := *crt.schemes[name]
		scheme.Workers = c.parallelism
		verdicts, err := scheme.VerifyParallelCtx(ctx, cfg, crt.labelings[name])
		if err != nil {
			return err
		}
		if rejected := rejecting(verdicts); len(rejected) > 0 {
			return newVerifyError(name, rejected)
		}
	}
	return nil
}

// VerifyDistributed checks the certificate as the distributed verification
// round of the self-stabilization model does: every processor checks that
// its neighbors' copies of their shared edge labels agree with its own,
// then runs the Theorem 1 verifier on its view. In one process every
// processor reads the certificate's one labeling, so the copies always
// agree and the round is exactly Verify's pass, with Verify's verdicts and
// errors. Copies that can disagree live in separate memories; the
// multi-process runtime certify/distnet compares them byte for byte.
func (c *Certifier) VerifyDistributed(ctx context.Context, g *Graph, crt *Certificate) error {
	return c.Verify(ctx, g, crt)
}

// bindCertificate validates the certificate against the graph and ensures
// its per-property schemes exist (building them — including the registry
// reconstruction — for certificates decoded from the wire).
func (c *Certifier) bindCertificate(g *Graph, crt *Certificate) (*cert.Config, error) {
	if g == nil || g.g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	if crt == nil {
		return nil, fmt.Errorf("%w: nil certificate", ErrBadConfig)
	}
	cfg, err := g.config()
	if err != nil {
		return nil, err
	}
	if crt.n != g.N() || crt.m != g.M() || crt.fingerprint != fingerprint(cfg) {
		return nil, wrapErr(ErrWrongGraph, fmt.Errorf("certificate is for n=%d m=%d fp=%016x", crt.n, crt.m, crt.fingerprint))
	}
	if err := crt.ensureSchemes(c); err != nil {
		return nil, err
	}
	return cfg, nil
}

func rejecting(verdicts []bool) []int {
	var out []int
	for v, ok := range verdicts {
		if !ok {
			out = append(out, v)
		}
	}
	return out
}

// Structure is the reusable property-independent half of the prover (path
// decomposition, lane partition, completion, embedding, hierarchy) for one
// graph: a service certifying many property sets of the same configuration
// builds it once and runs any number of batches against it.
type Structure struct {
	g  *Graph
	sp *core.StructuralProof
}

// BuildStructure computes the property-independent structure of the graph.
func (c *Certifier) BuildStructure(ctx context.Context, g *Graph) (*Structure, error) {
	if g == nil || g.g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	cfg, err := g.config()
	if err != nil {
		return nil, err
	}
	sp, err := core.BuildStructureCtx(ctx, cfg, nil, core.StructureOptions{
		UsePaperConstruction: c.paper,
		Parallelism:          c.parallelism,
	})
	if err != nil {
		return nil, translateProveErr(err)
	}
	return &Structure{g: g, sp: sp}, nil
}

// ProveBatchOn is ProveBatch against a prebuilt structure (the graph is the
// one the structure was built from).
func (c *Certifier) ProveBatchOn(ctx context.Context, st *Structure) (*Certificate, *BatchStats, error) {
	if st == nil || st.sp == nil {
		return nil, nil, fmt.Errorf("%w: nil structure", ErrBadConfig)
	}
	batch, err := c.newBatch()
	if err != nil {
		return nil, nil, err
	}
	labelings, stats, err := batch.ProveAllWithCtx(ctx, st.sp)
	if err != nil {
		return nil, nil, translateProveErr(err)
	}
	bst := &BatchStats{
		Lanes:          stats.Lanes,
		VirtualEdges:   stats.VirtualEdges,
		Congestion:     stats.Congestion,
		HierarchyDepth: stats.HierarchyDepth,
		PerProperty:    make(map[string]*Stats, len(stats.PerProperty)),
	}
	for _, p := range c.props {
		if pst, ok := stats.PerProperty[p.p.Name()]; ok {
			bst.PerProperty[p.Name()] = statsFrom(pst)
		}
	}
	// The certificate binds to the configuration the labelings were proved
	// against — the one frozen inside the structure, not a fresh snapshot of
	// the Graph (which may have been marked since BuildStructure).
	crt := &Certificate{
		maxLanes:    c.maxLanes,
		n:           st.sp.Cfg.G.N(),
		m:           st.sp.Cfg.G.M(),
		fingerprint: fingerprint(st.sp.Cfg),
		labelings:   map[string]*core.Labeling{},
		schemes:     map[string]*core.Scheme{},
	}
	// The core batch keys results by the algebra's display names; the public
	// surface (stats, certificates, the wire format) speaks catalog names.
	for _, p := range c.props {
		name, display := p.Name(), p.p.Name()
		l, ok := labelings[display]
		if !ok {
			bst.Failed = append(bst.Failed, name)
			continue
		}
		crt.props = append(crt.props, name)
		crt.labelings[name] = l
		crt.schemes[name] = batch.Scheme(display)
	}
	if len(crt.props) == 0 {
		return nil, bst, nil
	}
	return crt, bst, nil
}
