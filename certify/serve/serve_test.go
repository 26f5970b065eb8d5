package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/certify"
	"repro/certify/graphio"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func edgeListOf(t *testing.T, g *certify.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := graphio.WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func ingest(t *testing.T, base string, g *certify.Graph) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs?format=edgelist", "text/plain",
		strings.NewReader(edgeListOf(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var gr graphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	return gr.Fingerprint
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServiceRoundTrip is the canonical flow: ingest → prove → fetch →
// verify (direct and distributed), plus rejection of a corrupted upload.
func TestServiceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Caterpillar(6, 1))

	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{
		Fingerprint: fp,
		Properties:  []string{"bipartite", "acyclic"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Certificate) == 0 || len(pr.Failed) != 0 || pr.CertificateKey != "acyclic,bipartite" {
		t.Fatalf("prove response: failed=%v key=%q certlen=%d", pr.Failed, pr.CertificateKey, len(pr.Certificate))
	}
	if pr.Stats == nil || pr.Stats.PerProperty["bipartite"].MaxLabelBits == 0 {
		t.Fatalf("missing stats: %+v", pr.Stats)
	}

	// Fetch the stored blob; it must equal the one the prove returned.
	fetch, err := http.Get(ts.URL + "/v1/certificates/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(fetch.Body)
	fetch.Body.Close()
	if fetch.StatusCode != http.StatusOK || !bytes.Equal(blob, pr.Certificate) {
		t.Fatalf("fetch: %d, %d bytes (want %d)", fetch.StatusCode, len(blob), len(pr.Certificate))
	}

	// Verify the fetched blob, both verifier modes.
	for _, distributed := range []bool{false, true} {
		resp, body = postJSON(t, ts.URL+"/v1/verify", verifyRequest{
			Fingerprint: fp, Certificate: blob, Distributed: distributed,
		})
		var vr verifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || vr.Verdict != "accept" {
			t.Fatalf("verify (dist=%v): %d %s", distributed, resp.StatusCode, body)
		}
	}

	// A corrupted certificate is rejected with the rejecting vertices.
	var crt certify.Certificate
	if err := crt.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	bad, err := crt.Corrupt(1, "flip-class")
	if err != nil {
		t.Fatal(err)
	}
	badBlob, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: badBlob})
	var vr verifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	// A class-table corruption can be rejected before any vertex runs
	// (empty rejected list); the verdict and property are what matter.
	if resp.StatusCode != http.StatusOK || vr.Verdict != "reject" || vr.Property == "" {
		t.Fatalf("corrupted verify: %d %s", resp.StatusCode, body)
	}

	// Graph info lists the stored certificate key.
	info, err := http.Get(ts.URL + "/v1/graphs/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	var gr graphResponse
	if err := json.NewDecoder(info.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	info.Body.Close()
	if len(gr.Keys) != 1 || gr.Keys[0] != "acyclic,bipartite" {
		t.Fatalf("graph info keys: %v", gr.Keys)
	}
}

// TestServiceErrors is the status-code table for the failure classes.
func TestServiceErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Path(10))
	otherFP := ingest(t, ts.URL, certify.Path(11))

	// Prove on the other graph, then present its certificate against fp.
	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: otherFP, Properties: []string{"acyclic"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown fingerprint", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: "00000000deadbeef", Properties: []string{"acyclic"}})
			return resp.StatusCode
		}, http.StatusNotFound},
		{"bad fingerprint", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: "zzz", Properties: []string{"acyclic"}})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"unknown property", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp, Properties: []string{"nope"}})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"no properties", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"unknown JSON field", func() int {
			resp, err := http.Post(ts.URL+"/v1/prove", "application/json",
				strings.NewReader(`{"fingerprint":"`+fp+`","properties":["acyclic"],"bogus":1}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"malformed graph body", func() int {
			resp, err := http.Post(ts.URL+"/v1/graphs?format=edgelist", "text/plain", strings.NewReader("0 0\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"bad format parameter", func() int {
			resp, err := http.Post(ts.URL+"/v1/graphs?format=graphml", "text/plain", strings.NewReader("0 1\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"malformed certificate upload", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: []byte("garbage")})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"wrong graph", func() int {
			resp, _ := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: pr.Certificate})
			return resp.StatusCode
		}, http.StatusConflict},
		{"fetch before prove", func() int {
			resp, err := http.Get(ts.URL + "/v1/certificates/" + fp)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusNotFound},
		{"graph info 404", func() int {
			resp, err := http.Get(ts.URL + "/v1/graphs/00000000deadbeef")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.do(); got != tc.want {
				t.Fatalf("status %d, want %d", got, tc.want)
			}
		})
	}
}

// TestProveReportsFailedProperties pins the mixed-batch outcome: properties
// that do not hold are listed, the rest are certified.
func TestProveReportsFailedProperties(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Cycle(7)) // odd cycle: not bipartite

	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{
		Fingerprint: fp, Properties: []string{"bipartite", "maxdeg:2"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Failed) != 1 || pr.Failed[0] != "bipartite" {
		t.Fatalf("failed = %v", pr.Failed)
	}
	if len(pr.Certificate) == 0 || pr.CertificateKey != "maxdeg:2" {
		t.Fatalf("surviving property not certified: key=%q", pr.CertificateKey)
	}
}

// TestBackpressure pins the 429 path deterministically: one gated worker,
// queue depth one — the first request occupies the worker, the second the
// queue, the third must be turned away immediately.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, testProveGate: gate})
	fp := ingest(t, ts.URL, certify.Path(8))

	req := proveRequest{Fingerprint: fp, Properties: []string{"acyclic"}}
	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, body := postJSON(t, ts.URL+"/v1/prove", req)
		results <- result{resp.StatusCode, body}
	}

	go post() // occupies the worker (parked on the gate)
	waitFor(t, func() bool { return s.gateParked.Load() == 1 })
	go post() // sits in the queue
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// Queue full: immediate 429 with Retry-After.
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/prove", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", resp.StatusCode)
	}
	// No prove has completed yet, so there is no latency signal and the
	// estimate falls back to one second.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After before any completed prove: %q, want \"1\"", ra)
	}

	// Release the pool: both held requests complete successfully.
	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("held request %d: %d %s", i, r.code, r.body)
		}
	}
}

// TestRetryAfterFormula pins the 429 Retry-After estimate against the
// documented formula: (queued + in-flight) jobs over the worker pool at the
// moving-average prove latency, rounded up to whole seconds and clamped to
// [1, 60].
func TestRetryAfterFormula(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		queued  int
		ewma    time.Duration
		want    string
	}{
		{"no latency signal", 1, 3, 0, "1"},
		{"sub-second rounds up", 2, 0, 100 * time.Millisecond, "1"},
		{"empty queue still counts in-flight", 2, 0, 2 * time.Second, "2"},
		{"queue and pool divide", 1, 2, 2 * time.Second, "6"},
		{"uneven division rounds up", 2, 3, time.Second, "3"}, // 5 jobs / 2 workers × 1s = 2.5s
		{"clamped to a minute", 1, 4, 5 * time.Minute, "60"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{
				opts:    Options{Workers: tc.workers},
				queue:   make(chan *proveJob, tc.queued+1),
				latEWMA: tc.ewma,
			}
			for i := 0; i < tc.queued; i++ {
				s.queue <- &proveJob{}
			}
			if got := s.retryAfter(); got != tc.want {
				t.Fatalf("retryAfter() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRetryAfterEWMA pins the moving average itself: the first sample seeds
// it, later samples fold in at weight 1/5.
func TestRetryAfterEWMA(t *testing.T) {
	s := &Server{}
	s.recordLatency(time.Second)
	if s.latEWMA != time.Second {
		t.Fatalf("first sample: EWMA = %v, want 1s", s.latEWMA)
	}
	s.recordLatency(6 * time.Second)
	if want := 2 * time.Second; s.latEWMA != want { // (4×1s + 6s) / 5
		t.Fatalf("after second sample: EWMA = %v, want %v", s.latEWMA, want)
	}
}

// TestRetryAfterComputedOnWire pins that a real 429 carries the computed
// estimate: with one gated worker, a queue of two, and a seeded 2s average,
// the turned-away client is told to come back in (2 queued + 1 in-flight) ×
// 2s / 1 worker = 6 seconds.
func TestRetryAfterComputedOnWire(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2, testProveGate: gate})
	fp := ingest(t, ts.URL, certify.Path(8))
	s.recordLatency(2 * time.Second)

	req := proveRequest{Fingerprint: fp, Properties: []string{"acyclic"}}
	results := make(chan int, 3)
	post := func() {
		resp, _ := postJSON(t, ts.URL+"/v1/prove", req)
		results <- resp.StatusCode
	}
	go post() // occupies the worker (parked on the gate)
	waitFor(t, func() bool { return s.gateParked.Load() == 1 })
	go post()
	go post() // both sit in the queue
	waitFor(t, func() bool { return len(s.queue) == 2 })

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/prove", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth request: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "6" {
		t.Fatalf("Retry-After = %q, want \"6\"", ra)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("held request %d: %d", i, code)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestShutdownUnderLoad pins the graceful-shutdown contract behind
// certifyd's -drain flag: http.Server.Shutdown stops accepting new
// connections immediately, but in-flight prove requests parked deep in the
// worker pool still complete with 200 before Shutdown returns.
func TestShutdownUnderLoad(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(Options{Workers: 2, QueueDepth: 4, testProveGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fp := ingest(t, base, certify.Path(8))

	// Two in-flight proves, both parked on the worker gate.
	req := proveRequest{Fingerprint: fp, Properties: []string{"acyclic"}}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postJSON(t, base+"/v1/prove", req)
			results <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.gateParked.Load() == 2 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The listener closes promptly: new connections are refused while the
	// held requests are still in flight.
	waitFor(t, func() bool {
		_, err := http.Get(base + "/healthz")
		return err != nil
	})
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with requests still in flight", err)
	default:
	}

	// Releasing the pool lets the in-flight work finish: both clients get
	// their certificates, then Shutdown completes cleanly.
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("in-flight request %d finished with %d during drain, want 200", i, code)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
}

// TestQueuedRequestCancellation pins that a request cancelled while queued
// is dropped by the worker without proving, and the handler answers with
// the client-closed status.
func TestQueuedRequestCancellation(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := certify.Path(9)
	entry, err := s.store.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpString(entry.Fingerprint())

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before it is even submitted
	body, _ := json.Marshal(proveRequest{Fingerprint: fp, Properties: []string{"acyclic"}})
	req := httptest.NewRequest("POST", "/v1/prove", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled request: %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestProveTimeout pins the deadline path: a zero-room budget surfaces as
// 504, not a hung connection.
func TestProveTimeout(t *testing.T) {
	s, err := New(Options{Workers: 1, ProveTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entry, err := s.store.PutGraph(certify.Path(64))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(proveRequest{Fingerprint: fpString(entry.Fingerprint()), Properties: []string{"acyclic"}})
	req := httptest.NewRequest("POST", "/v1/prove", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: %d, want 504", rec.Code)
	}
}

// TestConcurrentServiceLoad hammers one stored graph with concurrent
// prove/fetch/verify requests — the race-clean acceptance criterion (run
// under -race in CI). The shared structure is built exactly once.
func TestConcurrentServiceLoad(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	fp := ingest(t, ts.URL, certify.Caterpillar(8, 1))

	props := [][]string{{"bipartite"}, {"acyclic"}, {"bipartite", "acyclic"}, {"maxdeg:3"}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := proveRequest{Fingerprint: fp, Properties: props[i%len(props)]}
			resp, body := postJSON(t, ts.URL+"/v1/prove", req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("prove %v: %d %s", req.Properties, resp.StatusCode, body)
				return
			}
			var pr proveResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				errs <- err
				return
			}
			vresp, vbody := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: pr.Certificate})
			var vr verifyResponse
			if err := json.Unmarshal(vbody, &vr); err != nil {
				errs <- err
				return
			}
			if vresp.StatusCode != http.StatusOK || vr.Verdict != "accept" {
				errs <- fmt.Errorf("verify: %d %s", vresp.StatusCode, vbody)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All four property sets ended up stored.
	entry, ok := s.store.Get(mustParseFP(t, fp))
	if !ok {
		t.Fatal("entry vanished")
	}
	if keys := entry.CertificateKeys(); len(keys) != len(props) {
		t.Fatalf("stored certificate keys: %v", keys)
	}
}

func mustParseFP(t *testing.T, s string) uint64 {
	t.Helper()
	fp, err := parseFingerprint(s)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestStructureBuiltOnce pins the amortization: concurrent Structure calls
// on one entry share a single build.
func TestStructureBuiltOnce(t *testing.T) {
	store := NewStore(0)
	entry, err := store.PutGraph(certify.Path(32))
	if err != nil {
		t.Fatal(err)
	}
	base, err := certify.New()
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan *certify.Structure, 8)
	for i := 0; i < 8; i++ {
		go func() {
			st, err := entry.Structure(context.Background(), base)
			if err != nil {
				t.Error(err)
			}
			results <- st
		}()
	}
	first := <-results
	for i := 1; i < 8; i++ {
		if st := <-results; st != first {
			t.Fatal("concurrent builders produced distinct structures")
		}
	}
}

// TestStoreIdempotentPut pins that re-submitting a configuration keeps the
// existing entry (and its cached certificates), and that distinct
// configurations get distinct entries.
func TestStoreIdempotentPut(t *testing.T) {
	store := NewStore(0)
	a1, err := store.PutGraph(certify.Path(16))
	if err != nil {
		t.Fatal(err)
	}
	a1.PutCertificate("k", &certify.Certificate{})
	a2, err := store.PutGraph(certify.Path(16))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical configuration produced a second entry")
	}
	if _, ok := a2.Certificate("k"); !ok {
		t.Fatal("existing certificates lost on re-put")
	}
	marked := certify.Path(16)
	marked.Mark(3)
	b, err := store.PutGraph(marked)
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("marked configuration collided with the unmarked one")
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d", store.Len())
	}
}

func TestPropsKeyCanonical(t *testing.T) {
	if PropsKey([]string{"b", "a"}) != PropsKey([]string{"a", "b"}) {
		t.Fatal("PropsKey depends on order")
	}
	if PropsKey([]string{"vc:3"}) != "vc:3" {
		t.Fatal("single key mangled")
	}
}

// TestResourceGuards pins the untrusted-input bounds added for service
// exposure — store capacity (507) and wire-format lane-budget cap (400) —
// and that distributed verification has no size cap of its own: it runs on
// the verifier's worker pool, so a graph of any storable size verifies.
func TestResourceGuards(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxGraphs: 2})

	fp := ingest(t, ts.URL, certify.Path(10))
	bigFP := ingest(t, ts.URL, certify.Path(5000))

	// Third distinct graph: capacity exhausted → 507. Re-submitting a
	// stored one stays idempotent and fine.
	resp, err := http.Post(ts.URL+"/v1/graphs?format=edgelist", "text/plain",
		strings.NewReader(edgeListOf(t, certify.Path(12))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-capacity ingest: %d, want 507", resp.StatusCode)
	}
	if again := ingest(t, ts.URL, certify.Path(10)); again != fp {
		t.Fatalf("idempotent re-ingest changed fingerprint: %s != %s", again, fp)
	}

	// max_lanes beyond what the wire format can carry → 400, not an
	// unverifiable certificate.
	resp2, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{
		Fingerprint: fp, Properties: []string{"acyclic"}, MaxLanes: certify.MaxLaneBudget + 1,
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized max_lanes: %d %s, want 400", resp2.StatusCode, body)
	}

	// A distributed verify of a 5000-vertex path (over the 4096-vertex cap
	// the service once imposed on it) answers exactly what a plain verify
	// answers.
	resp2, body = postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: bigFP, Properties: []string{"acyclic"}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp2.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	var verdicts [2]string
	for i, distributed := range []bool{false, true} {
		resp2, body = postJSON(t, ts.URL+"/v1/verify", verifyRequest{
			Fingerprint: bigFP, Certificate: pr.Certificate, Distributed: distributed,
		})
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("verify (distributed=%v): %d %s", distributed, resp2.StatusCode, body)
		}
		verdicts[i] = string(body)
	}
	if !strings.Contains(verdicts[0], `"verdict":"accept"`) || verdicts[1] != verdicts[0] {
		t.Fatalf("5000-vertex verify: plain %s, distributed %s; want the same accept", verdicts[0], verdicts[1])
	}
}

func patchJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestPatchRoundTrip is the PATCH flow: ingest → edit+recertify → the store
// is re-keyed to the new fingerprint, the returned certificate verifies
// against the new generation, and the inverse edit brings the configuration
// (and hence its fingerprint) back — incrementally, through the carried
// updater, without a fallback.
func TestPatchRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	fp0 := ingest(t, ts.URL, certify.Ladder(8))

	req := patchRequest{
		Edits:      []editJSON{{Op: "remove", U: 2, V: 3}},
		Properties: []string{"bipartite"},
		MaxLanes:   4,
	}
	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+fp0+"/edges", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", resp.StatusCode, body)
	}
	var pr patchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.OldFingerprint != fp0 || pr.Fingerprint == fp0 {
		t.Fatalf("fingerprints: old=%s new=%s (ingested %s)", pr.OldFingerprint, pr.Fingerprint, fp0)
	}
	if pr.M != certify.Ladder(8).M()-1 || pr.Update == nil || pr.Update.Fallback {
		t.Fatalf("patch response: m=%d update=%+v", pr.M, pr.Update)
	}
	if pr.CertificateKey != "bipartite" || len(pr.Certificate) == 0 {
		t.Fatalf("certificate: key=%q len=%d", pr.CertificateKey, len(pr.Certificate))
	}

	// The store is re-keyed: the old fingerprint is gone, the new one
	// resolves and lists the certificate.
	if _, ok := s.store.Get(mustParseFP(t, fp0)); ok {
		t.Fatal("old fingerprint still stored after PATCH")
	}
	info, err := http.Get(ts.URL + "/v1/graphs/" + pr.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var gr graphResponse
	if err := json.NewDecoder(info.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	info.Body.Close()
	if info.StatusCode != http.StatusOK || gr.M != pr.M || len(gr.Keys) != 1 || gr.Keys[0] != "bipartite" {
		t.Fatalf("new-generation info: %d %+v", info.StatusCode, gr)
	}

	// The returned certificate verifies against the new generation.
	vresp, vbody := postJSON(t, ts.URL+"/v1/verify", verifyRequest{
		Fingerprint: pr.Fingerprint, Certificate: pr.Certificate,
	})
	var vr verifyResponse
	if err := json.Unmarshal(vbody, &vr); err != nil {
		t.Fatal(err)
	}
	if vresp.StatusCode != http.StatusOK || vr.Verdict != "accept" {
		t.Fatalf("verify new generation: %d %s", vresp.StatusCode, vbody)
	}

	// The inverse edit restores the original configuration: same fingerprint
	// as the ingest, served incrementally by the carried updater.
	req.Edits = []editJSON{{Op: "add", U: 2, V: 3}}
	resp, body = patchJSON(t, ts.URL+"/v1/graphs/"+pr.Fingerprint+"/edges", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inverse patch: %d %s", resp.StatusCode, body)
	}
	var pr2 patchResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Fingerprint != fp0 {
		t.Fatalf("inverse edit fingerprint %s, want the original %s", pr2.Fingerprint, fp0)
	}
	if pr2.Update.TotalSources > 0 && pr2.Update.ReusedSources == 0 {
		t.Fatalf("second PATCH reused no embedding sources: %+v", pr2.Update)
	}
	entry, ok := s.store.Get(mustParseFP(t, fp0))
	if !ok {
		t.Fatal("restored configuration not stored under the original fingerprint")
	}
	if entry.upd == nil {
		t.Fatal("updater not carried to the successor entry")
	}
}

// TestPatchErrors is the PATCH status-code table. Every rejected batch must
// leave the stored generation untouched.
func TestPatchErrors(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Ladder(6))
	url := ts.URL + "/v1/graphs/" + fp + "/edges"
	ok := patchRequest{Properties: []string{"bipartite"}, MaxLanes: 4}

	cases := []struct {
		name string
		url  string
		req  patchRequest
		want int
	}{
		{"unknown fingerprint", ts.URL + "/v1/graphs/00000000deadbeef/edges",
			patchRequest{Edits: []editJSON{{Op: "remove", U: 2, V: 3}}, Properties: []string{"bipartite"}}, http.StatusNotFound},
		{"no edits", url, ok, http.StatusBadRequest},
		{"no properties", url,
			patchRequest{Edits: []editJSON{{Op: "remove", U: 2, V: 3}}}, http.StatusBadRequest},
		{"unknown op", url,
			patchRequest{Edits: []editJSON{{Op: "toggle", U: 2, V: 3}}, Properties: []string{"bipartite"}}, http.StatusBadRequest},
		{"unknown property", url,
			patchRequest{Edits: []editJSON{{Op: "remove", U: 2, V: 3}}, Properties: []string{"nope"}}, http.StatusBadRequest},
		{"remove absent edge", url,
			patchRequest{Edits: []editJSON{{Op: "remove", U: 0, V: 3}}, Properties: []string{"bipartite"}, MaxLanes: 4}, http.StatusUnprocessableEntity},
		{"add present edge", url,
			patchRequest{Edits: []editJSON{{Op: "add", U: 0, V: 1}}, Properties: []string{"bipartite"}, MaxLanes: 4}, http.StatusUnprocessableEntity},
		{"endpoint out of range", url,
			patchRequest{Edits: []editJSON{{Op: "add", U: 0, V: 99}}, Properties: []string{"bipartite"}, MaxLanes: 4}, http.StatusUnprocessableEntity},
		{"property no longer holds", url,
			patchRequest{Edits: []editJSON{{Op: "add", U: 0, V: 3}}, Properties: []string{"bipartite"}, MaxLanes: 4}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := patchJSON(t, tc.url, tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d %s, want %d", resp.StatusCode, body, tc.want)
			}
		})
	}

	// Every rejection rolled back: the original generation is still stored
	// under its original fingerprint and still certifiable.
	if _, ok := s.store.Get(mustParseFP(t, fp)); !ok {
		t.Fatal("stored entry lost after rejected batches")
	}
	resp, body := patchJSON(t, url, patchRequest{
		Edits: []editJSON{{Op: "remove", U: 2, V: 3}}, Properties: []string{"bipartite"}, MaxLanes: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid patch after rejections: %d %s", resp.StatusCode, body)
	}
}

// TestMalformedProveConfigRejectedEarly pins that configuration errors a
// client controls (duplicate properties) answer 400 before consuming a
// queue slot, and that an operator-level lane misconfiguration fails at
// startup rather than per request.
func TestMalformedProveConfigRejectedEarly(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Path(8))
	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{
		Fingerprint: fp, Properties: []string{"bipartite", "bipartite"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate properties: %d %s, want 400", resp.StatusCode, body)
	}

	if _, err := New(Options{MaxLanes: certify.MaxLaneBudget + 1}); err == nil {
		t.Fatal("serve.New accepted a default lane budget the wire format cannot carry")
	}
}

// TestFormulaProve drives the compiled-formula prove flow over the wire:
// a "formula" request proves and stores a certificate whose property name
// embeds the canonical formula, the blob verifies back (the verifier
// recompiles the formula from the certificate name alone), parse and
// compile failures answer 422 with the diagnostic, mixing "formula" with
// "properties" answers 400, and spacing variants share one cache entry.
func TestFormulaProve(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	fp := ingest(t, ts.URL, certify.Path(12))

	const bip = "(exists S V-set (forall u V (forall v V (-> (adj u v) (not (<-> (in u S) (in v S)))))))"
	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp, Formula: bip})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("formula prove: %d %s", resp.StatusCode, body)
	}
	var pr proveResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Certificate) == 0 || len(pr.Properties) != 1 || !strings.HasPrefix(pr.Properties[0], "mso:") {
		t.Fatalf("formula prove response: props=%v certlen=%d", pr.Properties, len(pr.Certificate))
	}

	// The certificate is self-describing: verification recompiles the
	// formula from the property name, no out-of-band state.
	resp, body = postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: pr.Certificate})
	var vr verifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || vr.Verdict != "accept" {
		t.Fatalf("verify compiled-formula certificate: %d %s", resp.StatusCode, body)
	}

	// A differently spaced source of the same formula hits the same cache
	// entry: the canonical key coalesces them.
	spaced := strings.ReplaceAll(bip, " (", "  (")
	if resp, body = postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp, Formula: spaced}); resp.StatusCode != http.StatusOK {
		t.Fatalf("spaced formula prove: %d %s", resp.StatusCode, body)
	}
	if cached := s.props.len(); cached != 1 {
		t.Fatalf("property cache has %d entries, want 1", cached)
	}

	// Failure taxonomy: syntax and semantic errors are 422 with the
	// diagnostic; mixing selectors is 400.
	for _, tc := range []struct {
		name    string
		req     proveRequest
		want    int
		needMsg string
	}{
		{"syntax", proveRequest{Fingerprint: fp, Formula: "(exists S V-set (adj u"}, http.StatusUnprocessableEntity, "parse error at"},
		{"semantic", proveRequest{Fingerprint: fp, Formula: "(forall u V (adj u v))"}, http.StatusUnprocessableEntity, "unbound variable"},
		{"mixed", proveRequest{Fingerprint: fp, Formula: bip, Properties: []string{"bipartite"}}, http.StatusBadRequest, "mutually exclusive"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/prove", tc.req)
		if resp.StatusCode != tc.want || !strings.Contains(string(body), tc.needMsg) {
			t.Fatalf("%s: %d %s (want %d containing %q)", tc.name, resp.StatusCode, body, tc.want, tc.needMsg)
		}
	}
}

// TestUncertifiableGraph pins that a stored graph outside the scheme answers
// 422 on the prove and PATCH routes, never 500: a disconnected graph on both
// (even when the edit would connect it, since the updater starts from a
// certified generation), and a single vertex under PATCH, where no edit is
// valid.
func TestUncertifiableGraph(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	disconnected, err := certify.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	fp := ingest(t, ts.URL, disconnected)
	single := ingest(t, ts.URL, certify.Path(1))

	resp, body := postJSON(t, ts.URL+"/v1/prove", proveRequest{Fingerprint: fp, Properties: []string{"bipartite"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("prove on a disconnected graph: %d %s, want 422", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		fp   string
		edit editJSON
	}{
		{fp, editJSON{Op: "add", U: 1, V: 2}},
		{single, editJSON{Op: "add", U: 0, V: 1}},
	} {
		resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+tc.fp+"/edges", patchRequest{
			Edits: []editJSON{tc.edit}, Properties: []string{"bipartite"},
		})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("PATCH %s %+v: %d %s, want 422", tc.fp, tc.edit, resp.StatusCode, body)
		}
	}
}

// TestStoreCapacityAcrossPatch pins that a PATCH moves a graph within the
// store rather than adding one: with room for two graphs, A and B stored
// and A patched to A′, the store still holds two, a third distinct ingest
// is refused, and re-ingesting A′'s configuration finds the patched entry.
func TestStoreCapacityAcrossPatch(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxGraphs: 2})
	fpA := ingest(t, ts.URL, certify.Ladder(6))
	ingest(t, ts.URL, certify.Path(10))

	resp, body := patchJSON(t, ts.URL+"/v1/graphs/"+fpA+"/edges", patchRequest{
		Edits: []editJSON{{Op: "remove", U: 2, V: 3}}, Properties: []string{"bipartite"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d %s", resp.StatusCode, body)
	}
	var pr patchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if n := s.Store().Len(); n != 2 {
		t.Fatalf("store holds %d graphs after PATCH, want 2", n)
	}

	resp, err := http.Post(ts.URL+"/v1/graphs?format=edgelist", "text/plain",
		strings.NewReader(edgeListOf(t, certify.Path(12))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("third distinct ingest: %d, want 507", resp.StatusCode)
	}

	var edges [][2]int
	for _, e := range certify.Ladder(6).Edges() {
		if e != [2]int{2, 3} {
			edges = append(edges, e)
		}
	}
	patched, err := certify.FromEdges(certify.Ladder(6).N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	before, ok := s.Store().Get(mustParseFP(t, pr.Fingerprint))
	if !ok {
		t.Fatal("patched entry not stored under its new fingerprint")
	}
	if fp := ingest(t, ts.URL, patched); fp != pr.Fingerprint {
		t.Fatalf("re-ingest of the patched configuration: %s, want %s", fp, pr.Fingerprint)
	}
	if after, _ := s.Store().Get(mustParseFP(t, pr.Fingerprint)); after != before {
		t.Fatal("re-ingest replaced the patched entry")
	}
	if _, ok := before.Certificate("bipartite"); !ok {
		t.Fatal("patched entry lost its certificate on re-ingest")
	}
}

// TestPropertyCacheBounded pins the property cache's cap: proving
// maxCachedProperties+1 distinct properties leaves the cache at the cap,
// and the overflow request still succeeds with the certificate a fresh
// server issues. A verify naming an evicted property resolves it again.
func TestPropertyCacheBounded(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	g := certify.Path(6)
	fp := ingest(t, ts.URL, g)
	prove := func(base, name string) []byte {
		t.Helper()
		resp, body := postJSON(t, base+"/v1/prove", proveRequest{Fingerprint: fp, Properties: []string{name}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prove %s: %d %s", name, resp.StatusCode, body)
		}
		var pr proveResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Certificate
	}
	var first, last []byte
	for d := 2; d < 2+maxCachedProperties+1; d++ {
		blob := prove(ts.URL, "maxdeg:"+strconv.Itoa(d))
		if d == 2 {
			first = blob
		}
		last = blob
	}
	if n := s.props.len(); n != maxCachedProperties {
		t.Fatalf("property cache holds %d entries after %d names, want the cap %d", n, maxCachedProperties+1, maxCachedProperties)
	}
	_, fresh := newTestServer(t, Options{})
	ingest(t, fresh.URL, g)
	if want := prove(fresh.URL, "maxdeg:"+strconv.Itoa(2+maxCachedProperties)); !bytes.Equal(last, want) {
		t.Fatal("the overflow request's certificate differs from a fresh server's")
	}
	// maxdeg:2 was the least recently used name, so the overflow evicted it.
	resp, body := postJSON(t, ts.URL+"/v1/verify", verifyRequest{Fingerprint: fp, Certificate: first})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"accept"`) {
		t.Fatalf("verify of an evicted property: %d %s", resp.StatusCode, body)
	}
	if n := s.props.len(); n != maxCachedProperties {
		t.Fatalf("property cache holds %d entries after a verify, want the cap %d", n, maxCachedProperties)
	}
}
