package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/certify"
	"repro/certify/graphio"
)

// errBadRequest is the failure class for malformed client input the handler
// layer rejects before it reaches the facade: an unparseable fingerprint or
// a request body that is not strict JSON. Handlers map it to 400; wrapping
// it (rather than returning naked errors.New values) keeps the service on
// the same typed-sentinel taxonomy the certlint errtaxonomy analyzer
// enforces for the facade.
var errBadRequest = errors.New("serve: bad request")

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
	// StoreShards is the certificate store's shard count (default 16).
	StoreShards int
	// MaxGraphs caps the number of stored configurations (default 4096);
	// further ingests answer 507 until capacity is freed by a restart.
	// Negative means unlimited.
	MaxGraphs int
	// ReadLimits bounds graph ingestion (default graphio.DefaultLimits).
	ReadLimits graphio.Limits

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
	if o.StoreShards <= 0 {
		o.StoreShards = 16
	}
	if o.MaxGraphs == 0 {
		o.MaxGraphs = 4096
	}
	return o
}

// Server is the certifyd HTTP handler: graph ingestion, certification
// through a bounded prover pool, certificate fetch, and verification of
// uploaded certificates against stored graphs. Create with New, serve with
// any http.Server, stop the workers with Close.
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

	// formulaMu guards formulas, the compiled-formula cache keyed by the
	// canonical (re-printed) formula. A compiled property accumulates its
	// join/accept memo tables as it proves, so handing every request for
	// the same formula the same instance makes repeat proves cheaper;
	// differently spaced sources coalesce on the canonical key.
	formulaMu sync.Mutex
	formulas  map[string]certify.Property
}

// proveJob is one unit of prover-pool work: a closure run by a worker under
// the request context. Prove and PATCH requests share the pool (and hence
// its backpressure) by enqueueing different closures.
type proveJob struct {
	ctx   context.Context
	run   func(ctx context.Context) proveOutcome
	reply chan proveOutcome // buffered: a worker never blocks on a gone handler
}

type proveOutcome struct {
	crt   *certify.Certificate
	stats *certify.BatchStats
	patch *patchOutcome
	err   error
}

// patchOutcome is the committed result of one PATCH job.
type patchOutcome struct {
	newFp uint64
	n, m  int
	us    *certify.UpdateStats
	crt   *certify.Certificate
	key   string
	props []string
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
	maxGraphs := opts.MaxGraphs
	if maxGraphs < 0 {
		maxGraphs = 0 // unlimited
	}
	s := &Server{
		opts:  opts,
		store: NewStore(opts.StoreShards, maxGraphs),
		base:  base,
		queue: make(chan *proveJob, opts.QueueDepth),
		quit:  make(chan struct{}),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/properties", s.handleProperties)
	s.mux.HandleFunc("POST /v1/graphs", s.handleIngest)
	s.mux.HandleFunc("GET /v1/graphs/{fp}", s.handleGraphInfo)
	s.mux.HandleFunc("POST /v1/prove", s.handleProve)
	s.mux.HandleFunc("PATCH /v1/graphs/{fp}/edges", s.handlePatch)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("GET /v1/certificates/{fp}", s.handleFetch)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the underlying certificate store (the load generator and
// tests read it directly).
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
func (s *Server) process(job *proveJob) proveOutcome {
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
		return proveOutcome{err: err}
	}
	start := time.Now()
	out := job.run(job.ctx)
	s.recordLatency(time.Since(start))
	return out
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

// dispatch enqueues a job on the prover pool and waits for its outcome (or
// the context). It reports ok=false after answering 429 itself when the
// queue is full — backpressure, not buffering without bound.
func (s *Server) dispatch(w http.ResponseWriter, ctx context.Context, run func(context.Context) proveOutcome) (proveOutcome, bool) {
	job := &proveJob{ctx: ctx, run: run, reply: make(chan proveOutcome, 1)}
	select {
	case s.queue <- job:
	default:
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, errors.New("prove queue is full, retry later"))
		return proveOutcome{}, false
	}
	select {
	case out := <-job.reply:
		return out, true
	case <-ctx.Done():
		return proveOutcome{err: ctx.Err()}, true
	}
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

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
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

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"graphs":    s.store.Len(),
		"queue_len": len(s.queue),
		"queue_cap": cap(s.queue),
		"workers":   s.opts.Workers,
	})
}

func (s *Server) handleProperties(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"properties": certify.Names(),
		"faults":     certify.FaultNames(),
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	format, err := graphio.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	g, err := graphio.ReadLimited(body, format, s.opts.ReadLimits)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, err)
		case errors.Is(err, graphio.ErrFormat):
			writeError(w, http.StatusBadRequest, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	entry, err := s.store.PutGraph(g)
	if err != nil {
		if errors.Is(err, ErrStoreFull) {
			writeError(w, http.StatusInsufficientStorage, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, graphResponse{
		Fingerprint: fpString(entry.Fingerprint()),
		N:           g.N(),
		M:           g.M(),
		Marked:      len(g.Marked()),
	})
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no graph %s", fpString(fp)))
		return
	}
	g := entry.Graph()
	writeJSON(w, http.StatusOK, graphResponse{
		Fingerprint: fpString(fp),
		N:           g.N(),
		M:           g.M(),
		Marked:      len(g.Marked()),
		Keys:        entry.CertificateKeys(),
	})
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req proveRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fp, err := parseFingerprint(req.Fingerprint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var props []certify.Property
	switch {
	case req.Formula != "":
		if len(req.Properties) > 0 {
			writeError(w, http.StatusBadRequest, errors.New(`"properties" and "formula" are mutually exclusive; pass one or the other`))
			return
		}
		p, err := s.formulaProperty(req.Formula)
		if err != nil {
			// The request is well-formed JSON but the formula itself does
			// not compile — semantic rejection, with the parser's position
			// or the checker's subformula in the message.
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		props = []certify.Property{p}
	case len(req.Properties) == 0:
		writeError(w, http.StatusBadRequest, errors.New("no properties requested"))
		return
	default:
		if props, err = certify.PropertiesByName(req.Properties...); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	maxLanes := req.MaxLanes
	if maxLanes <= 0 {
		maxLanes = s.opts.MaxLanes
	}
	// Building the Certifier here keeps every malformed-request failure —
	// duplicate properties, a max_lanes the wire format cannot carry — an
	// immediate 400 that never consumes a queue slot or a prover worker.
	certifier, err := certify.New(
		certify.WithProperties(props...),
		certify.WithMaxLanes(maxLanes),
	)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no graph %s (submit it via POST /v1/graphs first)", fpString(fp)))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ProveTimeout)
	defer cancel()
	out, ok := s.dispatch(w, ctx, func(ctx context.Context) proveOutcome {
		st, err := entry.Structure(ctx, s.base)
		if err != nil {
			return proveOutcome{err: err}
		}
		crt, stats, err := certifier.ProveBatchOn(ctx, st)
		return proveOutcome{crt: crt, stats: stats, err: err}
	})
	if !ok {
		return
	}
	if out.err != nil {
		switch {
		case errors.Is(out.err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("proving exceeded the %s budget", s.opts.ProveTimeout))
		case errors.Is(out.err, context.Canceled):
			writeError(w, statusClientClosedRequest, out.err)
		case errors.Is(out.err, certify.ErrTooWide):
			writeError(w, http.StatusUnprocessableEntity, out.err)
		default:
			writeError(w, http.StatusInternalServerError, out.err)
		}
		return
	}

	resp := proveResponse{Fingerprint: fpString(fp), Failed: out.stats.Failed}
	resp.Stats = &batchStatsJSON{
		Lanes:          out.stats.Lanes,
		VirtualEdges:   out.stats.VirtualEdges,
		Congestion:     out.stats.Congestion,
		HierarchyDepth: out.stats.HierarchyDepth,
		PerProperty:    make(map[string]propStatsJSON, len(out.stats.PerProperty)),
	}
	for name, st := range out.stats.PerProperty {
		resp.Stats.PerProperty[name] = propStatsJSON{
			RegistryClasses: st.RegistryClasses,
			MaxLabelBits:    st.MaxLabelBits,
		}
	}
	if out.crt != nil {
		blob, err := out.crt.MarshalBinary()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		key := PropsKey(out.crt.Properties())
		entry.PutCertificate(key, out.crt)
		resp.Properties = out.crt.Properties()
		resp.CertificateKey = key
		resp.Certificate = blob
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's conventional status for a request
// whose client went away; there is no stdlib constant.
const statusClientClosedRequest = 499

// formulaProperty compiles an MSO₂ formula source, serving repeats of the
// same (canonicalized) formula from the cache so their warmed-up compiled
// algebras are shared across requests. Compilation itself is a cheap AST
// walk; the valuable cached state is the memo tables inside the property.
func (s *Server) formulaProperty(src string) (certify.Property, error) {
	p, err := certify.FormulaProperty(src)
	if err != nil {
		return certify.Property{}, err
	}
	s.formulaMu.Lock()
	defer s.formulaMu.Unlock()
	if cached, ok := s.formulas[p.Name()]; ok {
		return cached, nil
	}
	if s.formulas == nil {
		s.formulas = map[string]certify.Property{}
	}
	s.formulas[p.Name()] = p
	return p, nil
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req patchRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no edits in batch"))
		return
	}
	if len(req.Properties) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no properties requested"))
		return
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
			writeError(w, http.StatusBadRequest, fmt.Errorf("edit %d: unknown op %q (want \"add\" or \"remove\")", i, e.Op))
			return
		}
		edits[i] = certify.Edit{Op: op, U: e.U, V: e.V}
	}
	props, err := certify.PropertiesByName(req.Properties...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxLanes := req.MaxLanes
	if maxLanes <= 0 {
		maxLanes = s.opts.MaxLanes
	}
	certifier, err := certify.New(
		certify.WithProperties(props...),
		certify.WithMaxLanes(maxLanes),
	)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no graph %s (submit it via POST /v1/graphs first)", fpString(fp)))
		return
	}
	// The updater key canonicalizes the certification configuration: an
	// entry's cached incremental engine is reused only for the exact
	// property-set/lane-budget pair it was built for.
	names := make([]string, len(props))
	for i, p := range props {
		names[i] = p.Name()
	}
	updKey := PropsKey(names) + "|" + strconv.Itoa(maxLanes)

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ProveTimeout)
	defer cancel()
	out, ok := s.dispatch(w, ctx, func(ctx context.Context) proveOutcome {
		upd, us, crt, gSnap, err := entry.UpdateEdges(ctx, certifier, updKey, edits)
		if err != nil {
			return proveOutcome{err: err}
		}
		newFp, err := gSnap.Fingerprint()
		if err != nil {
			return proveOutcome{err: err}
		}
		certKey := PropsKey(crt.Properties())
		// Commit: the edited graph takes over the store slot under its new
		// fingerprint, carrying the updater so the next PATCH is incremental.
		next := entry.successor(newFp, gSnap, upd, updKey, certKey, crt)
		s.store.Replace(fp, next)
		return proveOutcome{patch: &patchOutcome{
			newFp: newFp,
			n:     gSnap.N(),
			m:     gSnap.M(),
			us:    us,
			crt:   crt,
			key:   certKey,
			props: crt.Properties(),
		}}
	})
	if !ok {
		return
	}
	if out.err != nil {
		switch {
		case errors.Is(out.err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("recertification exceeded the %s budget", s.opts.ProveTimeout))
		case errors.Is(out.err, context.Canceled):
			writeError(w, statusClientClosedRequest, out.err)
		case errors.Is(out.err, certify.ErrBadEdit),
			errors.Is(out.err, certify.ErrPropertyFails),
			errors.Is(out.err, certify.ErrTooWide):
			// The engine rolled back: the stored generation is untouched.
			writeError(w, http.StatusUnprocessableEntity, out.err)
		default:
			writeError(w, http.StatusInternalServerError, out.err)
		}
		return
	}
	p := out.patch
	blob, err := p.crt.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, patchResponse{
		Fingerprint:    fpString(p.newFp),
		OldFingerprint: fpString(fp),
		N:              p.n,
		M:              p.m,
		Properties:     p.props,
		Update: &updateStatsJSON{
			Fallback:      p.us.Fallback,
			DirtyOps:      p.us.DirtyOps,
			ReusedEntries: p.us.ReusedEntries,
			TotalEntries:  p.us.TotalEntries,
			ReusedLabels:  p.us.ReusedLabels,
			TotalLabels:   p.us.TotalLabels,
			ReusedSources: p.us.ReusedSources,
			TotalSources:  p.us.TotalSources,
		},
		CertificateKey: p.key,
		Certificate:    blob,
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fp, err := parseFingerprint(req.Fingerprint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no graph %s", fpString(fp)))
		return
	}
	var crt certify.Certificate
	if err := crt.UnmarshalBinary(req.Certificate); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ProveTimeout)
	defer cancel()
	if req.Distributed {
		err = s.base.VerifyDistributed(ctx, entry.Graph(), &crt)
	} else {
		err = s.base.Verify(ctx, entry.Graph(), &crt)
	}
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
	case errors.Is(err, certify.ErrWrongGraph):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, certify.ErrBadFormula):
		// The certificate names an "mso:" property whose formula no longer
		// compiles — a semantic defect in the upload, not a malformed body.
		writeError(w, http.StatusUnprocessableEntity, err)
	case errors.Is(err, certify.ErrUnknownProperty):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	fp, err := parseFingerprint(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, ok := s.store.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no graph %s", fpString(fp)))
		return
	}
	var key string
	if props := r.URL.Query().Get("props"); props != "" {
		key = PropsKey(certify.SplitPropList(props))
	} else {
		keys := entry.CertificateKeys()
		switch len(keys) {
		case 0:
			writeError(w, http.StatusNotFound, errors.New("no certificates stored for this graph"))
			return
		case 1:
			key = keys[0]
		default:
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":        "several certificates stored, pick one with ?props=",
				"certificates": keys,
			})
			return
		}
	}
	crt, ok := entry.Certificate(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no certificate %q for graph %s", key, fpString(fp)))
		return
	}
	blob, err := crt.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Certificate-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}
