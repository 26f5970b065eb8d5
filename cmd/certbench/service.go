package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/certify"
	"repro/certify/serve"
	"repro/internal/cert"
)

// serviceConns bounds the load generator's callers and HTTP connections.
const serviceConns = 2

// replaysPerRoute is how many requests of each route a traced run replays
// on the facade (every PATCH is replayed: later requests depend on it).
const replaysPerRoute = 12

// slotState is the generator's view of one stored graph: its current
// fingerprint and certificates, and the ticket gate that starts the slot's
// requests in schedule order — reads together, a PATCH alone.
type slotState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	started  int // tickets started
	readers  int
	patching bool

	fp      string
	gen     int                 // PATCHes applied
	blobs   map[string][]byte   // property-set key → certificate of this generation
	digests map[string][32]byte // the first bytes seen per key in this generation
	built   bool                // the server holds this generation's structure
}

func newSlotState(fp string) *slotState {
	st := &slotState{fp: fp, blobs: map[string][]byte{}, digests: map[string][32]byte{}}
	st.cond = sync.NewCond(&st.mu)
	return st
}

func (st *slotState) acquire(ticket int, exclusive bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.started != ticket || st.patching || (exclusive && st.readers > 0) {
		st.cond.Wait()
	}
	st.started++
	if exclusive {
		st.patching = true
	} else {
		st.readers++
	}
	st.cond.Broadcast()
}

func (st *slotState) release(exclusive bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if exclusive {
		st.patching = false
	} else {
		st.readers--
	}
	st.cond.Broadcast()
}

// record checks a certificate against the first one seen for its key in
// this generation (the service must be deterministic, and a PATCH's
// incremental certificate must equal a fresh prove's) and keeps it.
func (st *slotState) record(key string, blob []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	d := sha256.Sum256(blob)
	if first, ok := st.digests[key]; ok && first != d {
		return fmt.Errorf("certificate %s of generation %d differs from the first one served", key, st.gen)
	}
	st.digests[key] = d
	st.blobs[key] = blob
	return nil
}

func (st *slotState) current(key string) (fp string, blob []byte, digest [32]byte, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	blob, ok = st.blobs[key]
	return st.fp, blob, st.digests[key], ok
}

// localSlot is a traced run's facade-side copy of a slot, for replays.
type localSlot struct {
	g     *certify.Graph
	st    *certify.Structure // nil after a PATCH until the next prove
	certs map[string]*certify.Certificate
	upd   *certify.Updater // ladders: replays the PATCH sequence
}

// serviceMix drives an in-process certifyd over loopback with an open-loop
// seeded request schedule.
type serviceMix struct {
	slots  []serviceSlot
	sched  []request
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	state  []*slotState
	base   *certify.Certifier
	local  []*localSlot

	mu      sync.Mutex
	misses  int // proves that had to rebuild the server's structure
	proves  int
	classes []float64 // per prove: registry classes over its properties
	info    []requestInfo
	updates []updateStats
	c429    int
}

// requestInfo is what a request left behind for metrics and replays.
type requestInfo struct {
	reqKB float64
	blob  []byte // verify: the blob sent; patch: the blob returned
}

type updateStats struct {
	Fallback      bool `json:"fallback"`
	DirtyOps      int  `json:"dirty_ops"`
	ReusedEntries int  `json:"reused_entries"`
	TotalEntries  int  `json:"total_entries"`
	ReusedLabels  int  `json:"reused_labels"`
	TotalLabels   int  `json:"total_labels"`
	ReusedSources int  `json:"reused_sources"`
	TotalSources  int  `json:"total_sources"`
}

func (w *serviceMix) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
		w.srv.Close()
		w.ts = nil
	}
}

// statusError is a non-2xx answer.
type statusError struct {
	method, path string
	code         int
	body         []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s", e.method, e.path, e.code, e.body)
}

// do sends one request and decodes a JSON reply into out (when non-nil),
// failing on transport errors and non-2xx statuses.
func (w *serviceMix) do(method, path string, body []byte, out any) ([]byte, error) {
	req, err := http.NewRequest(method, w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusTooManyRequests {
			w.mu.Lock()
			w.c429++
			w.mu.Unlock()
		}
		return nil, &statusError{method, strings.SplitN(path, "?", 2)[0], resp.StatusCode, bytes.TrimSpace(data)}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

func (w *serviceMix) setup(e *env, sp *span) error {
	rng := rand.New(rand.NewSource(e.cfg.seed))
	w.slots = serviceSlots(rng, e.cfg.sizes.serviceN)
	w.sched = schedule(rng, w.slots, e.cfg.sizes.serviceRate, e.cfg.seconds)
	w.info = make([]requestInfo, len(w.sched))
	var err error
	if w.srv, err = serve.New(serve.Options{}); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv)
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns},
	}
	if w.base, err = certify.New(); err != nil {
		return err
	}
	seen := map[string]bool{}
	var bits []float64 // per graph: its largest label
	total := 0
	for i, slot := range w.slots {
		g, err := ingestSpec(sp, slot.spec)
		if err != nil {
			return err
		}
		want, err := g.Fingerprint()
		if err != nil {
			return err
		}
		var info struct{ Fingerprint string }
		if _, err := w.do("POST", "/v1/graphs?format=edgelist", slot.spec.edgeList(), &info); err != nil {
			return err
		}
		if info.Fingerprint != fmt.Sprintf("%016x", want) || seen[info.Fingerprint] {
			return fmt.Errorf("slot %d: service fingerprint %s, want a fresh %016x", i, info.Fingerprint, want)
		}
		seen[info.Fingerprint] = true
		st := newSlotState(info.Fingerprint)
		w.state = append(w.state, st)
		// Warm-up: every property set once, which stores every
		// certificate the schedule names and builds the structure.
		largest := 0
		for _, set := range slot.sets {
			b, size, err := w.prove(st, set)
			if err != nil {
				return err
			}
			largest, total = max(largest, b), total+size
		}
		bits = append(bits, float64(largest))
		if err := w.verify(st, serve.PropsKey(slot.sets[0]), i%2 == 0, nil); err != nil {
			return err
		}
		if e.rec != nil {
			if err := w.setupLocal(e, slot, g); err != nil {
				return err
			}
		}
	}
	// The median graph's largest label: one graph's outlier would make
	// the maximum follow the seed.
	e.out.set("label_bits_max", median(bits))
	e.out.set("cert_bytes", float64(total))
	return nil
}

// setupLocal builds a traced run's facade-side copy of a slot, and
// replays its structure build on the core layers.
func (w *serviceMix) setupLocal(e *env, slot serviceSlot, g *certify.Graph) error {
	ls := &localSlot{g: g, certs: map[string]*certify.Certificate{}}
	var err error
	if ls.st, err = w.base.BuildStructure(e.ctx, g); err != nil {
		return err
	}
	for _, set := range slot.sets {
		c, err := certifierFor(set)
		if err != nil {
			return err
		}
		crt, _, err := c.ProveBatchOn(e.ctx, ls.st)
		if err != nil {
			return err
		}
		ls.certs[serve.PropsKey(set)] = crt
	}
	if isLadder(slot) {
		c, err := certifierFor(slot.sets[0])
		if err != nil {
			return err
		}
		if ls.upd, err = c.NewUpdater(e.ctx, g); err != nil {
			return err
		}
	}
	w.local = append(w.local, ls)
	rp := e.rec.root("setup", "replay")
	defer rp.end()
	r, err := newStructureReplay(e.ctx, rp, slot.spec, slot.sets[0])
	if err != nil {
		return err
	}
	_, _, err = r.proveAll(e.ctx, rp)
	return err
}

func certifierFor(names []string) (*certify.Certifier, error) {
	props, err := certify.PropertiesByName(names...)
	if err != nil {
		return nil, err
	}
	return certify.New(certify.WithProperties(props...))
}

// prove asks the service to certify a property set on the slot and
// returns the largest label and the certificate's size.
func (w *serviceMix) prove(st *slotState, set []string) (bits, size int, err error) {
	st.mu.Lock()
	fp, miss := st.fp, !st.built
	st.built = true
	st.mu.Unlock()
	body, err := json.Marshal(map[string]any{"fingerprint": fp, "properties": set})
	if err != nil {
		return 0, 0, err
	}
	var resp struct {
		Failed         []string
		CertificateKey string `json:"certificate_key"`
		Certificate    []byte
		Stats          struct {
			PerProperty map[string]struct {
				RegistryClasses int `json:"registry_classes"`
				MaxLabelBits    int `json:"max_label_bits"`
			} `json:"per_property"`
		}
	}
	if _, err := w.do("POST", "/v1/prove", body, &resp); err != nil {
		return 0, 0, err
	}
	if len(resp.Failed) > 0 || resp.CertificateKey != serve.PropsKey(set) {
		return 0, 0, fmt.Errorf("prove %v: failed %v, key %q", set, resp.Failed, resp.CertificateKey)
	}
	classes := 0
	for _, p := range resp.Stats.PerProperty {
		bits = max(bits, p.MaxLabelBits)
		classes += p.RegistryClasses
	}
	w.mu.Lock()
	w.classes = append(w.classes, float64(classes))
	w.proves++
	if miss {
		w.misses++
	}
	w.mu.Unlock()
	return bits, len(resp.Certificate), st.record(resp.CertificateKey, resp.Certificate)
}

func (w *serviceMix) fetch(st *slotState, key string) error {
	fp, _, want, ok := st.current(key)
	if !ok {
		return fmt.Errorf("fetch: no certificate %s held", key)
	}
	blob, err := w.do("GET", "/v1/certificates/"+fp+"?props="+key, nil, nil)
	if err != nil {
		return err
	}
	if sha256.Sum256(blob) != want {
		return fmt.Errorf("fetch %s: certificate differs from the one proved", key)
	}
	return nil
}

func (w *serviceMix) verify(st *slotState, key string, distributed bool, info *requestInfo) error {
	fp, blob, _, ok := st.current(key)
	if !ok {
		return fmt.Errorf("verify: no certificate %s held", key)
	}
	body, err := json.Marshal(map[string]any{"fingerprint": fp, "certificate": blob, "distributed": distributed})
	if err != nil {
		return err
	}
	if info != nil {
		info.reqKB, info.blob = float64(len(body))/1000, blob
	}
	var resp struct{ Verdict string }
	if _, err := w.do("POST", "/v1/verify", body, &resp); err != nil {
		return err
	}
	if resp.Verdict != "accept" {
		return fmt.Errorf("verify %s: verdict %q on an honest certificate", key, resp.Verdict)
	}
	return nil
}

func (w *serviceMix) patch(st *slotState, req request, info *requestInfo) error {
	op := "add"
	if req.remove {
		op = "remove"
	}
	set := w.slots[req.slot].sets[0]
	body, err := json.Marshal(map[string]any{
		"edits":      []map[string]any{{"op": op, "u": 2 * req.rung, "v": 2*req.rung + 1}},
		"properties": set,
	})
	if err != nil {
		return err
	}
	var resp struct {
		Fingerprint    string
		CertificateKey string `json:"certificate_key"`
		Certificate    []byte
		Update         updateStats
	}
	if _, err := w.do("PATCH", "/v1/graphs/"+st.fp+"/edges", body, &resp); err != nil {
		return err
	}
	st.mu.Lock()
	st.fp, st.gen, st.built = resp.Fingerprint, st.gen+1, false
	st.blobs, st.digests = map[string][]byte{}, map[string][32]byte{}
	st.mu.Unlock()
	info.blob = resp.Certificate
	w.mu.Lock()
	w.updates = append(w.updates, resp.Update)
	w.mu.Unlock()
	return st.record(resp.CertificateKey, resp.Certificate)
}

// serve runs scheduled request i.
func (w *serviceMix) serve(e *env, i int) error {
	req := w.sched[i]
	st := w.state[req.slot]
	exclusive := req.route == routePatch
	st.acquire(req.ticket, exclusive)
	defer st.release(exclusive)
	var sp *span
	if e.rec != nil && i%2 == 0 {
		sp = e.rec.root("measure", "request")
		defer sp.end()
	}
	s := sp.child("serve." + req.route.String())
	defer s.end()
	set := w.slots[req.slot].sets[req.set]
	switch req.route {
	case routeProve:
		_, _, err := w.prove(st, set)
		return err
	case routeFetch:
		return w.fetch(st, serve.PropsKey(set))
	case routeVerify, routeVerifyDist:
		return w.verify(st, serve.PropsKey(set), req.route == routeVerifyDist, &w.info[i])
	default:
		return w.patch(st, req, &w.info[i])
	}
}

// runService drives the service mix: set-ups, the open-loop measured
// phase, the output check, and in a traced run the facade replays.
func runService(e *env) error {
	var w *serviceMix
	drop := func() {
		if w != nil {
			w.close()
			w = nil
		}
	}
	defer drop()
	if err := timeSetups(e, drop, func(sp *span) error {
		w = &serviceMix{}
		return w.setup(e, sp)
	}); err != nil {
		return err
	}
	o := e.out
	dues := make([]time.Duration, len(w.sched))
	for i, r := range w.sched {
		dues[i] = r.due
	}
	// The counters describe the measured phase, not the warm-up.
	w.proves, w.misses, w.classes, w.c429 = 0, 0, nil, 0
	rt0, c0, t0, steal0 := readRuntime(), cpuTime(), time.Now(), stolen()
	samples := openLoop(dues, serviceConns, func(i int) error { return w.serve(e, i) })
	o.rt, o.cpu, o.rtOps = readRuntime().sub(rt0), cpuTime()-c0, len(samples)
	o.steal = stealShare(time.Since(t0), stolen()-steal0)
	o.rssMB = peakRSSMB()

	var sent, traced, untraced [numRoutes][]float64
	var allWait []float64
	late := 0.0
	for i, s := range samples {
		o.attempted++
		if s.err != nil {
			o.fail(s.err)
		} else if ms(s.latency()) <= sloMS {
			o.sloMet++
		}
		o.opMS = append(o.opMS, ms(s.latency()))
		o.window = max(o.window, s.done)
		r := w.sched[i].route
		sent[r] = append(sent[r], ms(s.done-s.sent))
		allWait = append(allWait, ms(s.wait()))
		if s.idle {
			late = max(late, ms(s.wait()))
		}
		if i%2 == 0 {
			traced[r] = append(traced[r], ms(s.done-s.sent))
		} else {
			untraced[r] = append(untraced[r], ms(s.done-s.sent))
		}
	}
	if e.rec != nil {
		// Even requests carry spans, odd ones none; the mix differs
		// between the halves, so compare route by route.
		var ratios []float64
		for r := range traced {
			if len(traced[r]) >= minOps && len(untraced[r]) >= minOps {
				ratios = append(ratios, median(traced[r])/median(untraced[r]))
			}
		}
		o.set("trace.overhead_ratio", median(ratios))
	}
	for r := route(0); r < numRoutes; r++ {
		o.set("serve."+r.String()+"_ms_p50", median(sent[r]))
	}
	wp95, _ := percentile(allWait, 95)
	o.set("loadgen.wait_ms_p95", wp95)
	o.set("loadgen.late_ms_max", late)
	o.set("loadgen.offered_per_s", e.cfg.sizes.serviceRate)
	w.serviceCounters(o)

	if err := w.check(e); err != nil {
		o.fail(fmt.Errorf("check: %w", err))
	}
	if e.rec != nil {
		if err := w.replay(e, sent); err != nil {
			o.fail(fmt.Errorf("replay: %w", err))
		}
	}
	return nil
}

func (w *serviceMix) serviceCounters(o *outcome) {
	var kb []float64
	for i, r := range w.sched {
		if r.route == routeVerify {
			kb = append(kb, w.info[i].reqKB)
		}
	}
	o.set("serve.req_kb_p50.verify", median(kb))
	if w.proves > 0 {
		o.set("serve.structure_miss_ratio", float64(w.misses)/float64(w.proves))
	}
	o.set("serve.rejected_429", float64(w.c429))
	var dirty []float64
	var u updateStats
	fallbacks := 0
	for _, s := range w.updates {
		dirty = append(dirty, float64(s.DirtyOps))
		u.ReusedEntries += s.ReusedEntries
		u.TotalEntries += s.TotalEntries
		u.ReusedLabels += s.ReusedLabels
		u.TotalLabels += s.TotalLabels
		u.ReusedSources += s.ReusedSources
		u.TotalSources += s.TotalSources
		if s.Fallback {
			fallbacks++
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	o.set("update.dirty_ops_p50", median(dirty))
	o.set("update.reused_entries_ratio", ratio(u.ReusedEntries, u.TotalEntries))
	o.set("update.reused_labels_ratio", ratio(u.ReusedLabels, u.TotalLabels))
	o.set("update.reused_sources_ratio", ratio(u.ReusedSources, u.TotalSources))
	o.set("update.fallback_count", float64(fallbacks))
	o.set("algebra.registry_classes", median(w.classes))
}

// check sends one corrupted certificate per fault, each of which the
// service must reject, and confirms every graph is still stored.
func (w *serviceMix) check(e *env) error {
	st := w.state[0]
	_, blob, _, ok := st.current(serve.PropsKey(w.slots[0].sets[0]))
	if !ok {
		return errors.New("no certificate held for slot 0")
	}
	var crt certify.Certificate
	if err := crt.UnmarshalBinary(blob); err != nil {
		return err
	}
	detected, faults := 0, certify.FaultNames()
	for _, f := range faults {
		bad, err := crt.Corrupt(e.cfg.seed, f)
		if err != nil {
			return err
		}
		badBlob, err := bad.MarshalBinary()
		if err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{"fingerprint": st.fp, "certificate": badBlob})
		if err != nil {
			return err
		}
		var resp struct{ Verdict string }
		_, err = w.do("POST", "/v1/verify", body, &resp)
		// A corrupted blob is rejected by the verifier (200, reject) or
		// already by the decoder (400).
		var se *statusError
		if (err == nil && resp.Verdict == "reject") || (errors.As(err, &se) && se.code == http.StatusBadRequest) {
			detected++
		}
	}
	e.out.set("verify.detect_ratio", float64(detected)/float64(len(faults)))
	if detected != len(faults) {
		return fmt.Errorf("service accepted %d of %d corrupted certificates", len(faults)-detected, len(faults))
	}
	if n := w.srv.Store().Len(); n != len(w.slots) {
		return fmt.Errorf("store holds %d graphs, want %d", n, len(w.slots))
	}
	return nil
}

// replay re-runs a sample of each route's requests on the facade, in
// schedule order, each as an op of its own: the facade's share of a
// route's latency is what HTTP, JSON and queueing do not explain.
func (w *serviceMix) replay(e *env, sent [numRoutes][]float64) error {
	var facade [numRoutes][]float64
	for i, req := range w.sched {
		if req.route != routePatch && len(facade[req.route]) >= replaysPerRoute {
			continue
		}
		rp := e.rec.root("replay", "replay")
		t0 := time.Now()
		err := w.replayOne(e, rp, req, w.info[i].blob)
		facade[req.route] = append(facade[req.route], ms(time.Since(t0)))
		rp.end()
		if err == nil && req.route == routeVerify && !isLadder(w.slots[req.slot]) {
			// The core layers under the verify; patched ladders are left
			// out, their configuration being the generation's.
			var cfg *cert.Config
			if cfg, err = w.slots[req.slot].spec.config(); err == nil {
				rc := rp.sibling("replay.core")
				err = replayDecode(e.ctx, rc, cfg, w.info[i].blob)
				rc.end()
			}
		}
		if err != nil {
			return fmt.Errorf("%s request %d: %w", req.route, i, err)
		}
	}
	for r := route(0); r < numRoutes; r++ {
		if s := median(sent[r]); s > 0 {
			e.out.set("serve.facade_share."+r.String(), median(facade[r])/s)
		}
	}
	return nil
}

func (w *serviceMix) replayOne(e *env, rp *span, req request, blob []byte) error {
	ls, slot := w.local[req.slot], w.slots[req.slot]
	set := slot.sets[req.set]
	switch req.route {
	case routeProve:
		c, err := certifierFor(set)
		if err != nil {
			return err
		}
		if ls.st == nil {
			if err := call(rp, "certify.build_structure", func() (err error) {
				ls.st, err = w.base.BuildStructure(e.ctx, ls.g)
				return err
			}); err != nil {
				return err
			}
		}
		var crt *certify.Certificate
		if err := call(rp, "certify.prove_batch_on", func() (err error) {
			crt, _, err = c.ProveBatchOn(e.ctx, ls.st)
			return err
		}); err != nil {
			return err
		}
		ls.certs[serve.PropsKey(set)] = crt
		return call(rp, "certify.marshal", func() error { _, err := crt.MarshalBinary(); return err })
	case routeFetch:
		crt, ok := ls.certs[serve.PropsKey(set)]
		if !ok {
			return fmt.Errorf("no local certificate %s", serve.PropsKey(set))
		}
		return call(rp, "certify.marshal", func() error { _, err := crt.MarshalBinary(); return err })
	case routeVerify, routeVerifyDist:
		var d certify.Certificate
		if err := call(rp, "certify.unmarshal", func() error { return d.UnmarshalBinary(blob) }); err != nil {
			return err
		}
		if req.route == routeVerifyDist {
			return call(rp, "certify.verify_distributed", func() error { return w.base.VerifyDistributed(e.ctx, ls.g, &d) })
		}
		return call(rp, "certify.verify", func() error { return w.base.Verify(e.ctx, ls.g, &d) })
	default:
		edit := certify.Edit{Op: certify.EditAdd, U: 2 * req.rung, V: 2*req.rung + 1}
		if req.remove {
			edit.Op = certify.EditRemove
		}
		var crt *certify.Certificate
		if err := call(rp, "certify.update", func() (err error) {
			_, crt, ls.g, err = ls.upd.UpdateCertified(e.ctx, edit)
			return err
		}); err != nil {
			return err
		}
		var local []byte
		if err := call(rp, "certify.marshal", func() (err error) {
			local, err = crt.MarshalBinary()
			return err
		}); err != nil {
			return err
		}
		if !bytes.Equal(local, blob) {
			return errors.New("facade update certificate differs from the service's")
		}
		ls.st = nil
		ls.certs = map[string]*certify.Certificate{serve.PropsKey(slot.sets[0]): crt}
		return nil
	}
}
