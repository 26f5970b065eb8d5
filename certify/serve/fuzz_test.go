package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/certify"
)

// fuzzGraphs are the tiny graphs every FuzzServeHandlers run stores: two
// certifiable ones, a disconnected one and a single vertex. Their
// fingerprints are fixed by their configurations, so the committed corpus
// names them literally.
func fuzzGraphs(t testing.TB) []*certify.Graph {
	disconnected, err := certify.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return []*certify.Graph{certify.Path(4), certify.Cycle(6), disconnected, certify.Path(1)}
}

// FuzzServeHandlers sends fuzzed JSON bodies to POST /v1/prove, PATCH
// /v1/graphs/{fp}/edges and POST /v1/verify on a fresh server holding
// fuzzGraphs. route picks the route; graph picks the PATCH target among the
// stored graphs and one unknown fingerprint. Whatever the body, a handler
// must not panic, must not answer 5xx, and must answer every failure with a
// JSON {"error": …} body.
func FuzzServeHandlers(f *testing.F) {
	f.Fuzz(func(t *testing.T, route, graph uint8, body []byte) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fps := []string{"00000000deadbeef"}
		for _, g := range fuzzGraphs(t) {
			e, err := s.store.PutGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fpString(e.Fingerprint()))
		}

		var req *http.Request
		switch route % 3 {
		case 0:
			req = httptest.NewRequest(http.MethodPost, "/v1/prove", bytes.NewReader(body))
		case 1:
			fp := fps[int(graph)%len(fps)]
			req = httptest.NewRequest(http.MethodPatch, "/v1/graphs/"+fp+"/edges", bytes.NewReader(body))
		default:
			req = httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK {
			return
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("%s %s: %d with a body that is not a JSON error: %q", req.Method, req.URL, rec.Code, rec.Body)
		}
	})
}
