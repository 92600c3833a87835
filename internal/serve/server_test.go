package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/serve"
)

type wireResponse struct {
	Hits []struct {
		ID   int64      `json:"id"`
		Dist float64    `json:"dist"`
		Pos  [3]float64 `json:"pos"`
	} `json:"hits"`
	Count  int `json:"count"`
	Timing struct {
		QueueWaitUs float64 `json:"queue_wait_us"`
		WaveUs      float64 `json:"wave_us"`
		TotalUs     float64 `json:"total_us"`
		BatchSize   int     `json:"batch_size"`
	} `json:"timing"`
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServerEndpoints drives the HTTP surface end to end: every query
// kind answers with brute-force-identical hits, malformed requests are
// 400s, wrong methods 405s, and health/stats respond.
func TestServerEndpoints(t *testing.T) {
	ps := testParticles(1200)
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 8},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body string
		want serve.Query
	}{
		{"/query/knn", `{"pos":[0.4,0.5,0.6],"k":5}`,
			serve.Query{Kind: serve.KNN, Pos: vecAt(0.4, 0.5, 0.6), K: 5}},
		{"/query/range", `{"pos":[0.3,0.3,0.3],"radius":0.1}`,
			serve.Query{Kind: serve.Range, Pos: vecAt(0.3, 0.3, 0.3), Radius: 0.1}},
		{"/query/probe", `{"pos":[0.5,0.5,0.5],"radius":0.02,"vel":[0.2,0,0],"dt":0.01}`,
			serve.Query{Kind: serve.Probe, Pos: vecAt(0.5, 0.5, 0.5), Radius: 0.02, Vel: vecAt(0.2, 0, 0), Dt: 0.01}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", c.path, resp.StatusCode, body)
		}
		var wire wireResponse
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", c.path, body, err)
		}
		want := bruteAnswer(ps, c.want)
		if wire.Count != len(want.Hits) || len(wire.Hits) != len(want.Hits) {
			t.Fatalf("POST %s: %d hits, want %d", c.path, wire.Count, len(want.Hits))
		}
		for i, h := range wire.Hits {
			w := want.Hits[i]
			if h.ID != w.ID || h.Dist != w.Dist || h.Pos != [3]float64{w.Pos.X, w.Pos.Y, w.Pos.Z} {
				t.Fatalf("POST %s hit %d = %+v, want %+v", c.path, i, h, w)
			}
		}
		if wire.Timing.BatchSize < 1 || wire.Timing.TotalUs <= 0 {
			t.Fatalf("POST %s: implausible timing %+v", c.path, wire.Timing)
		}
	}

	for _, bad := range []struct {
		path, body string
	}{
		{"/query/knn", `{"pos":[0.5,0.5],"k":5}`},     // short vector
		{"/query/knn", `{"pos":[0.5,0.5,0.5],"k":0}`}, // k out of range
		{"/query/range", `{"pos":[0.5,0.5,0.5]}`},     // missing radius
		{"/query/probe", `{"pos":[0.5,0.5,0.5],"radius":-1}`},
		{"/query/knn", `not json`},
	} {
		resp, body := postJSON(t, ts.URL+bad.path, bad.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: %d %s, want 400", bad.path, bad.body, resp.StatusCode, body)
		}
	}

	if resp, err := http.Get(ts.URL + "/query/knn"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query/knn: %d, want 405", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("/healthz: %d %s", resp.StatusCode, body)
	}
	respS, bodyS := postJSON(t, ts.URL+"/stats", "")
	if respS.StatusCode != http.StatusOK || !bytes.Contains(bodyS, []byte("serve.requests")) {
		t.Errorf("/stats: %d %s", respS.StatusCode, bodyS)
	}
}

func vecAt(x, y, z float64) paratreet.Vec3 { return paratreet.Vec3{X: x, Y: y, Z: z} }

// TestServerDrainRejects proves intake stops after Drain with the
// 503-mapped rejection.
func TestServerDrainRejects(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain()
	resp, body := postJSON(t, ts.URL+"/query/knn", `{"pos":[0.5,0.5,0.5],"k":3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after Drain: %d %s, want 503", resp.StatusCode, body)
	}
}

// TestServerKNNMatchesLibrary is the library cross-check: server kNN
// answers at resident particle positions are bit-identical to the
// knn-application simulation's own up-and-down traversal results.
func TestServerKNNMatchesLibrary(t *testing.T) {
	const k = 6
	ps := testParticles(1000)

	// Library run: the knn application over its own knn.Data tree.
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 8,
	}, knn.Accumulator{}, knn.Codec{}, append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	libNbrs := map[int64][]knn.Neighbor{}
	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), k)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: k} // self included, like an ad-hoc query at the same point
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					libNbrs[b.Particles[i].ID] = append([]knn.Neighbor(nil), st.Neighbors(i)...)
				}
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}

	// Serving run: ad-hoc kNN queries at a sample of the same positions.
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), append([]paratreet.Particle(nil), ps...))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 8},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < len(ps); i += 97 {
		p := &ps[i]
		body := fmt.Sprintf(`{"pos":[%v,%v,%v],"k":%d}`, p.Pos.X, p.Pos.Y, p.Pos.Z, k)
		resp, raw := postJSON(t, ts.URL+"/query/knn", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query at particle %d: %d %s", p.ID, resp.StatusCode, raw)
		}
		var wire wireResponse
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		want := append([]knn.Neighbor(nil), libNbrs[p.ID]...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].DistSq != want[b].DistSq {
				return want[a].DistSq < want[b].DistSq
			}
			return want[a].ID < want[b].ID
		})
		if len(wire.Hits) != len(want) {
			t.Fatalf("query at particle %d: %d hits, want %d", p.ID, len(wire.Hits), len(want))
		}
		for j, h := range wire.Hits {
			if h.ID != want[j].ID || h.Dist != math.Sqrt(want[j].DistSq) {
				t.Fatalf("query at particle %d hit %d = (%d, %v), library found (%d, %v)",
					p.ID, j, h.ID, h.Dist, want[j].ID, math.Sqrt(want[j].DistSq))
			}
		}
	}
}

// TestServerRequestLimits: what a peer sends is bounded before it is
// believed. An oversize body stops the decoder (413); a timeout_ms that is
// not a positive number of milliseconds within serve.MaxTimeout is the
// client's error (400) — 1e300 used to overflow into a deadline already
// past, answer 504 and count against the SLO; so is a finite position or
// radius whose distances overflow (400) — 1e308 used to answer range
// with a bodyless 200 (+Inf dist) and kNN with 0 hits. None of these
// reaches the watchdog, while a valid override is honoured.
func TestServerRequestLimits(t *testing.T) {
	eng, err := serve.NewEngine(testConfig(paratreet.DecompSFC, paratreet.CacheWaitFree), testParticles(600))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{
		Batch: serve.BatchConfig{MaxBatch: 8},
		// An objective that never breaches, so that a watchdog counts.
		SLO: serve.SLOConfig{Window: time.Hour, Interval: time.Hour, MaxP99: time.Hour},
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := map[string]string{
		"/query/knn":   `"pos":[0.4,0.5,0.6],"k":3`,
		"/query/range": `"pos":[0.3,0.3,0.3],"radius":0.1`,
		"/query/probe": `"pos":[0.5,0.5,0.5],"radius":0.02,"vel":[0.2,0,0],"dt":0.01`,
	}
	cases := []struct {
		name, extra string
		want        int
	}{
		{"oversize body", `,"pad":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"`, http.StatusRequestEntityTooLarge},
		{"timeout 1e300", `,"timeout_ms":1e300`, http.StatusBadRequest},
		{"timeout negative", `,"timeout_ms":-5`, http.StatusBadRequest},
		{"timeout zero", `,"timeout_ms":0`, http.StatusBadRequest},
		{"timeout over the cap", fmt.Sprintf(`,"timeout_ms":%d`, serve.MaxTimeout/time.Millisecond+1), http.StatusBadRequest},
		{"valid override", `,"timeout_ms":30000`, http.StatusOK},
		// Duplicate keys: the decoder keeps the last pos/radius.
		{"extreme pos", `,"pos":[1e308,1e308,1e308]`, http.StatusBadRequest},
		{"extreme pos and radius", `,"pos":[1e308,1e308,1e308],"radius":1e308`, http.StatusBadRequest},
	}
	served := int64(0)
	for path, q := range queries {
		for _, c := range cases {
			resp, body := postJSON(t, ts.URL+path, "{"+q+c.extra+"}")
			if resp.StatusCode != c.want {
				t.Errorf("%s, %s: status %d, want %d (%.120s)", path, c.name, resp.StatusCode, c.want, body)
			}
			if c.want == http.StatusOK {
				served++
			}
		}
	}
	if st := srv.Watchdog().Evaluate(); st.Requests != served || st.Errors != 0 {
		t.Errorf("watchdog saw %d requests, %d errors; want the %d served ones and no error", st.Requests, st.Errors, served)
	}
}
