package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/certify"
	"repro/certify/graphio"
)

// Failure classes the handler layer itself raises. errBadRequest is
// malformed client input rejected before it reaches the facade (an
// unparseable fingerprint, a body that is not strict JSON, a missing
// field); errNotFound is a fingerprint or certificate key the store does not
// hold; errQueueFull is prover-pool backpressure. Wrapping them, rather than
// returning naked errors.New values, keeps the service on the typed-sentinel
// taxonomy the certlint errtaxonomy analyzer enforces for the facade, and
// lets statusOf map every failure to its status in one place.
var (
	errBadRequest = errors.New("serve: bad request")
	errNotFound   = errors.New("serve: not found")
	errQueueFull  = errors.New("serve: prove queue is full, retry later")
)

// Options configures a Server. The zero value of any field means its
// documented default.
type Options struct {
	// Workers bounds the prover worker pool (default GOMAXPROCS): at most
	// this many prove requests run concurrently, the rest queue.
	Workers int
	// QueueDepth bounds the pending prove queue (default 64). When the
	// queue is full the service answers 429 instead of buffering without
	// bound — backpressure, not collapse.
	QueueDepth int
	// ProveTimeout is the per-request proving budget (default 60s);
	// cancellation reaches the prover's worker pools through the request
	// context.
	ProveTimeout time.Duration
	// MaxBodyBytes caps any request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxLanes is the default lane budget for prove requests that do not
	// set max_lanes (default certify.DefaultMaxLanes).
	MaxLanes int
	// MaxGraphs caps the number of stored configurations (default 4096);
	// further ingests answer 507 until capacity is freed by a restart.
	// Negative means unlimited.
	MaxGraphs int

	// testProveGate, when set (tests only), makes every worker block on a
	// receive from the gate before processing a job — the deterministic way
	// to hold the pool busy and observe queue backpressure.
	testProveGate chan struct{}
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ProveTimeout <= 0 {
		o.ProveTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxLanes <= 0 {
		o.MaxLanes = certify.DefaultMaxLanes
	}
	if o.MaxGraphs == 0 {
		o.MaxGraphs = 4096
	}
	return o
}

// Server is the certifyd HTTP handler: graph ingestion, certification
// through a bounded prover pool, certificate fetch, and verification of
// uploaded certificates against stored graphs. Create with New, serve with
// any http.Server, stop the workers with Close. Every failure is answered
// as a JSON {"error": …} body with the status statusOf assigns.
//
//	POST /v1/graphs?format=auto      ingest a graph (edge list or DIMACS)
//	GET  /v1/graphs/{fp}             stored graph summary + certificate keys
//	POST /v1/prove                   {"fingerprint","properties"|"formula",["max_lanes"]}
//	PATCH /v1/graphs/{fp}/edges      apply an edit batch and re-certify incrementally
//	POST /v1/verify                  {"fingerprint","certificate",["distributed"]}
//	GET  /v1/certificates/{fp}       fetch a stored PLSC blob (?props=...)
//	GET  /v1/properties              the property catalog and fault names
//	GET  /healthz                    liveness + queue occupancy
type Server struct {
	opts  Options
	store *Store
	// base is the property-less certifier every request shares: structure
	// builds and certificate verification (certificates are
	// self-describing). Per-request property sets get their own Certifier,
	// which is just configuration.
	base  *certify.Certifier
	queue chan *proveJob
	quit  chan struct{}
	wg    sync.WaitGroup
	mux   *http.ServeMux

	// gateParked counts workers parked on testProveGate (tests only).
	gateParked atomic.Int32

	// latMu guards latEWMA, an exponentially weighted moving average of
	// recent prove-job wall times — the signal behind the 429 Retry-After
	// estimate.
	latMu   sync.Mutex
	latEWMA time.Duration

	// props holds one resolved instance per property name, so every
	// prove, PATCH and verify naming a property shares its algebra memo.
	props propCache
}

// maxCachedProperties caps the server's property cache. Each cached
// property keeps its algebra memo, which the certify package caps in
// entries, so the two caps bound what clients naming ever new formulas or
// parameters can pin.
const maxCachedProperties = 32

// propCache maps canonical property names (catalog names, "mso:" plus the
// canonical formula text) to one resolved instance each, keeping the
// maxCachedProperties most recently used.
type propCache struct {
	mu     sync.Mutex
	byName map[string]certify.Property
	order  []string // least recently used first
}

// get returns the cached instance of the name, if any.
func (c *propCache) get(name string) (certify.Property, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.byName[name]
	if ok {
		c.touchLocked(name)
	}
	return p, ok
}

// add caches p under its name, evicting the least recently used entry when
// the cache is full, and returns the cached instance: an earlier one of the
// same name wins, so concurrent resolvers converge on one memo.
func (c *propCache) add(p certify.Property) certify.Property {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := p.Name()
	if q, ok := c.byName[name]; ok {
		c.touchLocked(name)
		return q
	}
	if c.byName == nil {
		c.byName = map[string]certify.Property{}
	}
	if len(c.order) == maxCachedProperties {
		delete(c.byName, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
	c.byName[name] = p
	c.order = append(c.order, name)
	return p
}

// touchLocked moves a cached name to the most recently used end.
func (c *propCache) touchLocked(name string) {
	i := slices.Index(c.order, name)
	c.order = append(slices.Delete(c.order, i, i+1), name)
}

// len returns the number of cached properties.
func (c *propCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byName)
}

// proveJob is one unit of prover-pool work: a closure run by a worker under
// the request context, writing its results into the handler's variables.
// Prove and PATCH requests share the pool (and hence its backpressure) by
// enqueueing different closures.
type proveJob struct {
	ctx   context.Context
	run   func(ctx context.Context) error
	reply chan error // buffered: a worker never blocks on a gone handler
}

// New builds the service and starts its worker pool. A default lane budget
// the wire format cannot carry is an operator misconfiguration and is
// rejected here, not blamed on clients one request at a time.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.MaxLanes > certify.MaxLaneBudget {
		return nil, fmt.Errorf("%w: default lane budget %d exceeds the wire format's maximum %d", certify.ErrBadConfig, opts.MaxLanes, certify.MaxLaneBudget)
	}
	base, err := certify.New()
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		store: NewStore(max(opts.MaxGraphs, 0)),
		base:  base,
		queue: make(chan *proveJob, opts.QueueDepth),
		quit:  make(chan struct{}),
		mux:   http.NewServeMux(),
	}
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /v1/properties", s.handleProperties)
	s.handle("POST /v1/graphs", s.handleIngest)
	s.handle("GET /v1/graphs/{fp}", s.handleGraphInfo)
	s.handle("POST /v1/prove", s.handleProve)
	s.handle("PATCH /v1/graphs/{fp}/edges", s.handlePatch)
	s.handle("POST /v1/verify", s.handleVerify)
	s.handle("GET /v1/certificates/{fp}", s.handleFetch)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// handle registers a handler that reports failure as an error, answered
// with statusOf's status.
func (s *Server) handle(pattern string, h func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
		}
	})
}

// statusClientClosedRequest is nginx's conventional status for a request
// whose client went away; there is no stdlib constant.
const statusClientClosedRequest = 499

// statusOf maps a failure to its HTTP status, so the same input gets the
// same status on every route.
func statusOf(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, errBadRequest),
		errors.Is(err, certify.ErrUnknownProperty),
		errors.Is(err, certify.ErrBadConfig),
		errors.Is(err, certify.ErrBadCertificate):
		return http.StatusBadRequest
	case errors.As(err, &tooBig):
		// Only a graph body gets here: a JSON body over the cap fails
		// strict decoding and wraps errBadRequest.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, graphio.ErrFormat):
		return http.StatusBadRequest
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, certify.ErrWrongGraph):
		return http.StatusConflict
	case errors.Is(err, certify.ErrBadFormula),
		errors.Is(err, certify.ErrTooWide),
		errors.Is(err, certify.ErrDisconnected),
		errors.Is(err, certify.ErrBadEdit),
		errors.Is(err, certify.ErrPropertyFails):
		// Semantic rejections: the request is well-formed, but the formula
		// does not compile or the graph cannot be (re)certified as asked.
		// A rejected PATCH rolled back, leaving the stored generation as is.
		return http.StatusUnprocessableEntity
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrStoreFull):
		return http.StatusInsufficientStorage
	default:
		return http.StatusInternalServerError
	}
}

// Store exposes the underlying certificate store (benchmarks and tests read
// it directly).
func (s *Server) Store() *Store { return s.store }

// Close stops the worker pool. In-flight jobs finish; queued jobs whose
// handlers already gave up are drained by their buffered reply channels.
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case job := <-s.queue:
			job.reply <- s.process(job)
		}
	}
}

// process runs one queued job under the pool's test gate and cancellation
// discipline.
func (s *Server) process(job *proveJob) error {
	if gate := s.opts.testProveGate; gate != nil {
		s.gateParked.Add(1)
		select {
		case <-gate:
		case <-job.ctx.Done():
		}
		s.gateParked.Add(-1)
	}
	// A request cancelled while queued is dropped before any proving work.
	if err := job.ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err := job.run(job.ctx)
	s.recordLatency(time.Since(start))
	return err
}

// recordLatency folds one executed job's wall time into the moving average
// (weight 1/5 — recent jobs dominate, a single outlier does not).
func (s *Server) recordLatency(d time.Duration) {
	s.latMu.Lock()
	if s.latEWMA == 0 {
		s.latEWMA = d
	} else {
		s.latEWMA = (s.latEWMA*4 + d) / 5
	}
	s.latMu.Unlock()
}

// retryAfter estimates, in whole seconds, how long a rejected client should
// wait for a queue slot: the work ahead of it — every queued job plus the
// jobs in flight on the workers — divided across the pool at the moving
// average prove latency, rounded up and clamped to [1, 60]. Before any job
// has completed there is no latency signal and the estimate falls back to
// one second.
func (s *Server) retryAfter() string {
	s.latMu.Lock()
	avg := s.latEWMA
	s.latMu.Unlock()
	if avg <= 0 {
		return "1"
	}
	ahead := time.Duration(len(s.queue)+s.opts.Workers) * avg / time.Duration(s.opts.Workers)
	secs := int((ahead + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

// dispatch runs a job on the prover pool under the request's proving budget
// and waits for it (or the context). A full queue fails fast with
// errQueueFull and a Retry-After estimate — backpressure, not buffering
// without bound.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, run func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ProveTimeout)
	defer cancel()
	job := &proveJob{ctx: ctx, run: run, reply: make(chan error, 1)}
	select {
	case s.queue <- job:
	default:
		w.Header().Set("Retry-After", s.retryAfter())
		return errQueueFull
	}
	var err error
	select {
	case err = <-job.reply:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("proving exceeded the %s budget: %w", s.opts.ProveTimeout, err)
	}
	return err
}

// ---- wire types ----

type errorResponse struct {
	Error string `json:"error"`
}

type graphResponse struct {
	Fingerprint string   `json:"fingerprint"`
	N           int      `json:"n"`
	M           int      `json:"m"`
	Marked      int      `json:"marked,omitempty"`
	Keys        []string `json:"certificates,omitempty"`
}

type proveRequest struct {
	Fingerprint string   `json:"fingerprint"`
	Properties  []string `json:"properties"`
	Formula     string   `json:"formula"` // MSO₂ source, compiled on the fly; exclusive with properties
	MaxLanes    int      `json:"max_lanes"`
}

type propStatsJSON struct {
	RegistryClasses int `json:"registry_classes"`
	MaxLabelBits    int `json:"max_label_bits"`
}

type batchStatsJSON struct {
	Lanes          int                      `json:"lanes"`
	VirtualEdges   int                      `json:"virtual_edges"`
	Congestion     int                      `json:"congestion"`
	HierarchyDepth int                      `json:"hierarchy_depth"`
	PerProperty    map[string]propStatsJSON `json:"per_property,omitempty"`
}

type proveResponse struct {
	Fingerprint    string          `json:"fingerprint"`
	Properties     []string        `json:"properties,omitempty"`
	Failed         []string        `json:"failed,omitempty"`
	Stats          *batchStatsJSON `json:"stats,omitempty"`
	CertificateKey string          `json:"certificate_key,omitempty"`
	Certificate    []byte          `json:"certificate,omitempty"` // base64 in JSON
}

type editJSON struct {
	Op string `json:"op"` // "add" or "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type patchRequest struct {
	Edits      []editJSON `json:"edits"`
	Properties []string   `json:"properties"`
	MaxLanes   int        `json:"max_lanes"`
}

type updateStatsJSON struct {
	Fallback      bool `json:"fallback"`
	DirtyOps      int  `json:"dirty_ops"`
	ReusedEntries int  `json:"reused_entries"`
	TotalEntries  int  `json:"total_entries"`
	ReusedLabels  int  `json:"reused_labels"`
	TotalLabels   int  `json:"total_labels"`
	ReusedSources int  `json:"reused_sources"`
	TotalSources  int  `json:"total_sources"`
}

type patchResponse struct {
	Fingerprint    string           `json:"fingerprint"`
	OldFingerprint string           `json:"old_fingerprint"`
	N              int              `json:"n"`
	M              int              `json:"m"`
	Properties     []string         `json:"properties"`
	Update         *updateStatsJSON `json:"update"`
	CertificateKey string           `json:"certificate_key"`
	Certificate    []byte           `json:"certificate"` // base64 in JSON
}

type verifyRequest struct {
	Fingerprint string `json:"fingerprint"`
	Certificate []byte `json:"certificate"`
	Distributed bool   `json:"distributed"`
}

type verifyResponse struct {
	Verdict  string `json:"verdict"` // "accept" or "reject"
	Property string `json:"property,omitempty"`
	Rejected []int  `json:"rejected,omitempty"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func parseFingerprint(s string) (uint64, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("%w: bad fingerprint %q", errBadRequest, s)
	}
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad fingerprint %q", errBadRequest, s)
	}
	return fp, nil
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// lookup parses a fingerprint and returns the entry stored under it.
func (s *Server) lookup(fpHex string) (*Entry, error) {
	fp, err := parseFingerprint(fpHex)
	if err != nil {
		return nil, err
	}
	return s.get(fp)
}

func (s *Server) get(fp uint64) (*Entry, error) {
	entry, ok := s.store.Get(fp)
	if !ok {
		return nil, fmt.Errorf("%w: no graph %s (submit it via POST /v1/graphs first)", errNotFound, fpString(fp))
	}
	return entry, nil
}

// decodeRequest strictly decodes a JSON request body under the body cap.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %w", errBadRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing body data", errBadRequest)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"graphs":    s.store.Len(),
		"queue_len": len(s.queue),
		"queue_cap": cap(s.queue),
		"workers":   s.opts.Workers,
	})
	return nil
}

func (s *Server) handleProperties(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{
		"properties": certify.Names(),
		"faults":     certify.FaultNames(),
	})
	return nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	format, err := graphio.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		return fmt.Errorf("%w: %w", errBadRequest, err)
	}
	g, err := graphio.Read(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), format)
	if err != nil {
		return err
	}
	entry, err := s.store.PutGraph(g)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, graphResponse{
		Fingerprint: fpString(entry.Fingerprint()),
		N:           g.N(),
		M:           g.M(),
		Marked:      len(g.Marked()),
	})
	return nil
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) error {
	entry, err := s.lookup(r.PathValue("fp"))
	if err != nil {
		return err
	}
	g := entry.Graph()
	writeJSON(w, http.StatusOK, graphResponse{
		Fingerprint: fpString(entry.Fingerprint()),
		N:           g.N(),
		M:           g.M(),
		Marked:      len(g.Marked()),
		Keys:        entry.CertificateKeys(),
	})
	return nil
}

// certifierFor is the prologue prove and PATCH requests share: it resolves
// the requested properties (catalog names, or for prove a formula), applies
// the default lane budget, builds the Certifier and looks up the stored
// entry. Every failure here is the client's and is answered before the
// request takes a queue slot or a prover worker. updKey canonicalizes the
// property set and lane budget: an entry's cached incremental engine is
// reused only for the exact pair it was built for.
func (s *Server) certifierFor(fpHex string, names []string, formula string, maxLanes int) (c *certify.Certifier, entry *Entry, updKey string, err error) {
	fp, err := parseFingerprint(fpHex)
	if err != nil {
		return nil, nil, "", err
	}
	var props []certify.Property
	switch {
	case formula != "":
		if len(names) > 0 {
			return nil, nil, "", fmt.Errorf(`%w: "properties" and "formula" are mutually exclusive; pass one or the other`, errBadRequest)
		}
		// A formula that does not compile is ErrBadFormula: a semantic
		// rejection, with the parser's position or the checker's
		// subformula in the message.
		p, err := certify.FormulaProperty(formula)
		if err != nil {
			return nil, nil, "", err
		}
		props = []certify.Property{s.props.add(p)}
	case len(names) == 0:
		return nil, nil, "", fmt.Errorf("%w: no properties requested", errBadRequest)
	default:
		if props, err = s.properties(names); err != nil {
			return nil, nil, "", err
		}
	}
	if maxLanes <= 0 {
		maxLanes = s.opts.MaxLanes
	}
	// Duplicate properties and a max_lanes the wire format cannot carry
	// fail here with ErrBadConfig.
	c, err = certify.New(certify.WithProperties(props...), certify.WithMaxLanes(maxLanes))
	if err != nil {
		return nil, nil, "", err
	}
	if entry, err = s.get(fp); err != nil {
		return nil, nil, "", err
	}
	return c, entry, PropsKey(c.Properties()) + "|" + strconv.Itoa(maxLanes), nil
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) error {
	var req proveRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		return err
	}
	certifier, entry, _, err := s.certifierFor(req.Fingerprint, req.Properties, req.Formula, req.MaxLanes)
	if err != nil {
		return err
	}
	var (
		crt   *certify.Certificate
		stats *certify.BatchStats
	)
	err = s.dispatch(w, r, func(ctx context.Context) error {
		st, err := entry.Structure(ctx, s.base)
		if err != nil {
			return err
		}
		crt, stats, err = certifier.ProveBatchOn(ctx, st)
		return err
	})
	if err != nil {
		return err
	}

	resp := proveResponse{Fingerprint: fpString(entry.Fingerprint()), Failed: stats.Failed}
	resp.Stats = &batchStatsJSON{
		Lanes:          stats.Lanes,
		VirtualEdges:   stats.VirtualEdges,
		Congestion:     stats.Congestion,
		HierarchyDepth: stats.HierarchyDepth,
		PerProperty:    make(map[string]propStatsJSON, len(stats.PerProperty)),
	}
	for name, st := range stats.PerProperty {
		resp.Stats.PerProperty[name] = propStatsJSON{
			RegistryClasses: st.RegistryClasses,
			MaxLabelBits:    st.MaxLabelBits,
		}
	}
	if crt != nil {
		blob, err := crt.MarshalBinary()
		if err != nil {
			return err
		}
		key := PropsKey(crt.Properties())
		entry.PutCertificate(key, crt)
		resp.Properties = crt.Properties()
		resp.CertificateKey = key
		resp.Certificate = blob
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// properties resolves catalog names through the property cache: a cached
// name costs a map lookup, and a new one is resolved once and cached under
// its canonical name (differently spaced formulas coalesce there).
func (s *Server) properties(names []string) ([]certify.Property, error) {
	props := make([]certify.Property, len(names))
	for i, name := range names {
		p, ok := s.props.get(name)
		if !ok {
			var err error
			if p, err = certify.PropertyByName(name); err != nil {
				return nil, err
			}
			p = s.props.add(p)
		}
		props[i] = p
	}
	return props, nil
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) error {
	var req patchRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		return err
	}
	if len(req.Edits) == 0 {
		return fmt.Errorf("%w: no edits in batch", errBadRequest)
	}
	edits := make([]certify.Edit, len(req.Edits))
	for i, e := range req.Edits {
		var op certify.EditOp
		switch e.Op {
		case "add":
			op = certify.EditAdd
		case "remove":
			op = certify.EditRemove
		default:
			return fmt.Errorf("%w: edit %d: unknown op %q (want \"add\" or \"remove\")", errBadRequest, i, e.Op)
		}
		edits[i] = certify.Edit{Op: op, U: e.U, V: e.V}
	}
	certifier, entry, updKey, err := s.certifierFor(r.PathValue("fp"), req.Properties, "", req.MaxLanes)
	if err != nil {
		return err
	}
	var (
		us   *certify.UpdateStats
		crt  *certify.Certificate
		key  string
		next *Entry
	)
	err = s.dispatch(w, r, func(ctx context.Context) error {
		upd, stats, c, g, err := entry.UpdateEdges(ctx, certifier, updKey, edits)
		if err != nil {
			return err
		}
		newFp, err := g.Fingerprint()
		if err != nil {
			return err
		}
		us, crt, key = stats, c, PropsKey(c.Properties())
		// Commit: the edited graph takes over the store slot under its new
		// fingerprint, carrying the updater so the next PATCH is incremental.
		next = entry.successor(newFp, g, upd, updKey, key, crt)
		s.store.Replace(entry.Fingerprint(), next)
		return nil
	})
	if err != nil {
		return err
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, patchResponse{
		Fingerprint:    fpString(next.Fingerprint()),
		OldFingerprint: fpString(entry.Fingerprint()),
		N:              next.Graph().N(),
		M:              next.Graph().M(),
		Properties:     crt.Properties(),
		Update: &updateStatsJSON{
			Fallback:      us.Fallback,
			DirtyOps:      us.DirtyOps,
			ReusedEntries: us.ReusedEntries,
			TotalEntries:  us.TotalEntries,
			ReusedLabels:  us.ReusedLabels,
			TotalLabels:   us.TotalLabels,
			ReusedSources: us.ReusedSources,
			TotalSources:  us.TotalSources,
		},
		CertificateKey: key,
		Certificate:    blob,
	})
	return nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) error {
	var req verifyRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		return err
	}
	entry, err := s.lookup(req.Fingerprint)
	if err != nil {
		return err
	}
	var crt certify.Certificate
	if err := crt.UnmarshalBinary(req.Certificate); err != nil {
		return err
	}
	// Verify through the cached instances of the certificate's properties,
	// so the registry rebuild and the per-vertex checks hit the memos
	// earlier requests filled. A name the cache cannot resolve goes to the
	// property-less base certifier, which reports it as it always has.
	verifier := s.base
	if props, err := s.properties(crt.Properties()); err == nil {
		if c, err := certify.New(certify.WithProperties(props...)); err == nil {
			verifier = c
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ProveTimeout)
	defer cancel()
	if req.Distributed {
		err = verifier.VerifyDistributed(ctx, entry.Graph(), &crt)
	} else {
		err = verifier.Verify(ctx, entry.Graph(), &crt)
	}
	// A certificate naming an "mso:" property whose formula no longer
	// compiles is ErrBadFormula: a semantic defect in the upload, not a
	// malformed body.
	var ve *certify.VerifyError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, verifyResponse{Verdict: "accept"})
	case errors.As(err, &ve):
		writeJSON(w, http.StatusOK, verifyResponse{
			Verdict:  "reject",
			Property: ve.Property,
			Rejected: ve.Rejected,
		})
	default:
		return err
	}
	return nil
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) error {
	entry, err := s.lookup(r.PathValue("fp"))
	if err != nil {
		return err
	}
	var key string
	if props := r.URL.Query().Get("props"); props != "" {
		key = PropsKey(certify.SplitPropList(props))
	} else {
		keys := entry.CertificateKeys()
		switch len(keys) {
		case 0:
			return fmt.Errorf("%w: no certificates stored for this graph", errNotFound)
		case 1:
			key = keys[0]
		default:
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":        "several certificates stored, pick one with ?props=",
				"certificates": keys,
			})
			return nil
		}
	}
	crt, ok := entry.Certificate(key)
	if !ok {
		return fmt.Errorf("%w: no certificate %q for graph %s", errNotFound, key, fpString(entry.Fingerprint()))
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Certificate-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
	return nil
}
