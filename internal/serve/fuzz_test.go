package serve_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/serve"
)

// FuzzQueryRequest throws arbitrary body bytes at the three query
// endpoints. The edge may answer only a 200 whose body decodes with
// count == len(hits) and every dist finite, a 400, or a 413 — plus a 504
// when the body named its own timeout_ms, since a client deadline shorter
// than a wave legitimately expires. Anything else (a 500, a bodyless 200,
// a panic, a hang) fails. The seeds run under plain go test; CI fuzzes
// for 10s.
func FuzzQueryRequest(f *testing.F) {
	paths := []string{"/query/knn", "/query/range", "/query/probe"}
	for _, seed := range []string{
		`{"pos":[0.5,0.5,0.5],"k":4}`,
		`{"pos":[0.5,0.5,0.5],"radius":0.1}`,
		`{"pos":[0.5,0.5,0.5],"radius":0.02,"vel":[0.2,0,0],"dt":0.01}`,
		// +Inf distances: range used to answer a bodyless 200, kNN 0 hits.
		`{"pos":[1e308,1e308,1e308],"radius":1e308,"k":2}`,
		`{"pos":[0.5,0.5,0.5],"radius":0.01,"vel":[1e200,0,0],"dt":1e200}`,
		`{"pos":[NaN,0,0],"k":1}`,
		`{"pos":[0.5,0.5,0.5],"k":1,"timeout_ms":1e300}`,
		`{"pos":[0.5,0.5,0.5],"k":1,"timeout_ms":1e-9}`,
		`{"pos":[0.5,0.5,0.5],"pad":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"}`,
		`{"pos":[0.5,0.5,`,
		`{"pos":[0,0,0],"k":1,"timeout_ms":1e-7}0`, // trailing data
		`{"pos":[0.5,0.5,0.5],"pos":[1e308,0,0],"k":3,"k":-1}`,
		``,
	} {
		for ep := range paths {
			f.Add([]byte(seed), uint8(ep))
		}
	}

	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(600))
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{Batch: serve.BatchConfig{MaxBatch: 8}})
	defer srv.Drain()

	f.Fuzz(func(t *testing.T, body []byte, ep uint8) {
		path := paths[int(ep)%len(paths)]
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung on %q", path, body)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp wireResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: 200 with undecodable body %q: %v (request %q)", path, rec.Body.Bytes(), err, body)
			}
			if resp.Count != len(resp.Hits) {
				t.Fatalf("%s: count %d != %d hits (request %q)", path, resp.Count, len(resp.Hits), body)
			}
			for _, h := range resp.Hits {
				if math.IsNaN(h.Dist) || math.IsInf(h.Dist, 0) {
					t.Fatalf("%s: non-finite dist %v (request %q)", path, h.Dist, body)
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusGatewayTimeout:
			var req struct {
				TimeoutMs *float64 `json:"timeout_ms"`
			}
			if json.Unmarshal(body, &req) != nil || req.TimeoutMs == nil {
				t.Fatalf("%s: 504 without a client timeout_ms (request %q)", path, body)
			}
		default:
			t.Fatalf("%s: status %d %q (request %q)", path, rec.Code, rec.Body.Bytes(), body)
		}
	})
}
