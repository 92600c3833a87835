package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paratreet/internal/metrics"
	"paratreet/internal/vec"
)

// ServerConfig parameterizes the HTTP layer.
type ServerConfig struct {
	// Batch configures the wave batcher behind the query endpoints.
	Batch BatchConfig
	// DefaultTimeout is the per-request deadline applied when a request
	// carries no timeout_ms of its own. Default 2s.
	DefaultTimeout time.Duration
	// SLO, when it names an objective (MaxErrorRate or MaxP99 nonzero),
	// runs a watchdog whose breaches flip /readyz to 503. The watchdog's
	// Registry defaults to the batcher's.
	SLO SLOConfig
}

// Server is the HTTP/JSON front of an Engine: POST /query/{knn,range,
// probe} submit queries through the wave batcher; /healthz reports
// liveness, /readyz reports readiness (503 while draining or out of
// SLO), /stats the serve.* instruments; the introspection endpoints
// (pprof, vars, snapshot, Prometheus /metrics) ride the same
// instance-scoped mux.
type Server struct {
	eng            *Engine
	bat            *Batcher[Query, Answer]
	mux            *http.ServeMux
	defaultTimeout time.Duration
	watchdog       *Watchdog
	reqSeq         atomic.Int64
	draining       atomic.Bool
}

// NewServer wires a server over eng. The batcher records into the
// engine's registry unless cfg.Batch.Registry overrides it.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.Batch.Registry == nil {
		cfg.Batch.Registry = eng.Registry()
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.SLO.Registry == nil {
		cfg.SLO.Registry = cfg.Batch.Registry
	}
	s := &Server{
		eng:            eng,
		bat:            NewBatcher[Query, Answer](cfg.Batch, eng.RunBatch),
		mux:            http.NewServeMux(),
		defaultTimeout: cfg.DefaultTimeout,
		watchdog:       NewWatchdog(cfg.SLO),
	}
	s.watchdog.Start()
	s.mux.HandleFunc("/query/knn", s.handleQuery(KNN))
	s.mux.HandleFunc("/query/range", s.handleQuery(Range))
	s.mux.HandleFunc("/query/probe", s.handleQuery(Probe))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/stats", s.handleStats)
	AttachIntrospection(s.mux, eng.Snapshot)
	return s
}

// Handler returns the server's mux, ready for http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Batcher exposes the underlying batcher (tests, custom drivers).
func (s *Server) Batcher() *Batcher[Query, Answer] { return s.bat }

// Watchdog exposes the SLO watchdog (tests, the daemon's fault hooks).
func (s *Server) Watchdog() *Watchdog { return s.watchdog }

// BeginDrain flips /readyz to 503 without stopping intake: the
// Kubernetes-style first step of shutdown, giving load balancers a grace
// window to steer traffic away while in-flight requests still complete.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.watchdog.cfg.Registry.Gauge(metrics.GServeReady).Set(0)
}

// Drain gracefully stops query intake and completes every queued and
// in-flight wave; call after BeginDrain and http.Server.Shutdown on
// SIGTERM.
func (s *Server) Drain() {
	s.BeginDrain()
	s.watchdog.Stop()
	s.bat.Drain()
}

// queryRequest is the JSON request body shared by the three query
// endpoints; each endpoint reads the fields relevant to its kind.
type queryRequest struct {
	Pos    []float64 `json:"pos"`
	K      int       `json:"k,omitempty"`
	Radius float64   `json:"radius,omitempty"`
	Vel    []float64 `json:"vel,omitempty"`
	Dt     float64   `json:"dt,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline; see
	// timeout.
	TimeoutMs *float64 `json:"timeout_ms,omitempty"`
}

// Limits on what a peer may send. A query body is a few hundred bytes;
// MaxBodyBytes is where the decoder stops reading (413). A timeout_ms
// above MaxTimeout is refused rather than clamped: as a float of
// milliseconds it can name a span a Duration cannot hold.
const (
	MaxBodyBytes = 1 << 20
	MaxTimeout   = time.Hour
)

// timeout returns the request's deadline span: the server default when the
// request names none, else its timeout_ms, which must be a positive number
// of milliseconds no longer than MaxTimeout. The check is written as the
// negation of "in range" so that NaN, which compares false to everything,
// is refused too.
func (r *queryRequest) timeout(def time.Duration) (time.Duration, error) {
	if r.TimeoutMs == nil {
		return def, nil
	}
	ms := *r.TimeoutMs
	if !(ms > 0 && ms <= float64(MaxTimeout/time.Millisecond)) {
		return 0, fmt.Errorf("serve: timeout_ms must be in (0, %d], got %v", MaxTimeout/time.Millisecond, ms)
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

// hitJSON is one matched particle on the wire.
type hitJSON struct {
	ID   int64      `json:"id"`
	Dist float64    `json:"dist"`
	Pos  [3]float64 `json:"pos"`
}

// timingJSON is the per-request breakdown returned with every answer.
type timingJSON struct {
	QueueWaitUs float64 `json:"queue_wait_us"`
	WaveUs      float64 `json:"wave_us"`
	TotalUs     float64 `json:"total_us"`
	BatchSize   int     `json:"batch_size"`
}

// queryResponse is the JSON response body of the query endpoints.
type queryResponse struct {
	Hits   []hitJSON  `json:"hits"`
	Count  int        `json:"count"`
	Timing timingJSON `json:"timing"`
}

// errorResponse is the JSON body of every non-2xx query response.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuery(kind QueryKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		// One JSON object and nothing after it: Unmarshal refuses trailing
		// data, which a streaming Decode would silently ignore.
		var req queryRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, fmt.Errorf("bad request body: %w", err))
			return
		}
		q, err := req.toQuery(kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Refused before the watchdog sees it: a bad timeout is the
		// client's error, not a request the server failed.
		timeout, err := req.timeout(s.defaultTimeout)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		id := s.reqSeq.Add(1)
		start := time.Now()
		ans, tm, err := s.bat.Submit(q, start.Add(timeout))
		s.watchdog.Record(id, time.Since(start), err != nil)
		if err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		resp := queryResponse{
			Hits:  make([]hitJSON, len(ans.Hits)),
			Count: len(ans.Hits),
			Timing: timingJSON{
				QueueWaitUs: micros(tm.QueueWait),
				WaveUs:      micros(tm.Wave),
				TotalUs:     micros(time.Since(start)),
				BatchSize:   tm.BatchSize,
			},
		}
		for i, h := range ans.Hits {
			resp.Hits[i] = hitJSON{ID: h.ID, Dist: h.Dist, Pos: [3]float64{h.Pos.X, h.Pos.Y, h.Pos.Z}}
		}
		// Encode before committing the status: an encoding failure must
		// answer 500, not a 200 with no body.
		buf := respBufs.Get().(*bytes.Buffer)
		defer putRespBuf(buf)
		if err := json.NewEncoder(buf).Encode(resp); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	}
}

// respBufs recycles response encoding buffers, so encoding ahead of the
// status costs no per-request allocation beyond what streaming did.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putRespBuf returns buf to respBufs unless one huge answer (a range
// over much of the dataset) grew it past 1 MiB: the pool should not pin
// that memory. Answers past 64 KiB are common enough that a 64 KiB cap
// cost serve_mixed ~15% more allocation per query.
func putRespBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 {
		buf.Reset()
		respBufs.Put(buf)
	}
}

// toQuery converts the wire request into a validated Query.
func (r *queryRequest) toQuery(kind QueryKind) (Query, error) {
	pos, err := toVec(r.Pos, "pos")
	if err != nil {
		return Query{}, err
	}
	q := Query{Kind: kind, Pos: pos, K: r.K, Radius: r.Radius, Dt: r.Dt}
	if kind == Probe {
		if len(r.Vel) > 0 {
			if q.Vel, err = toVec(r.Vel, "vel"); err != nil {
				return Query{}, err
			}
		}
	}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

func toVec(f []float64, field string) (vec.Vec3, error) {
	if len(f) != 3 {
		return vec.Vec3{}, fmt.Errorf("serve: %s must be [x,y,z], got %d components", field, len(f))
	}
	return vec.Vec3{X: f[0], Y: f[1], Z: f[2]}, nil
}

// statusOf maps batcher rejections to HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		// Shed load fast but tell well-behaved clients when to return.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// handleHealth reports liveness plus the resident dataset's shape. It
// stays 200 through drain and SLO breaches: the process is alive, just
// not accepting new traffic — that distinction is /readyz's job.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"particles": s.eng.NumParticles(),
		"procs":     s.eng.Procs(),
	})
}

// handleReady reports readiness: 200 while the server should receive
// traffic, 503 once drain has begun (BeginDrain or batcher Drain) or
// while the SLO watchdog reports a breach. The body says which.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load() || s.bat.Draining()
	st := s.watchdog.Status()
	out := struct {
		Ready    bool      `json:"ready"`
		Draining bool      `json:"draining"`
		SLO      SLOStatus `json:"slo"`
	}{
		Ready:    !draining && !st.Breached,
		Draining: draining,
		SLO:      st,
	}
	w.Header().Set("Content-Type", "application/json")
	if !out.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(out)
}

// handleStats reports the serve.* instruments: request/wave/rejection
// counters, the queue and readiness gauges, and the batch-size,
// queue-wait, wave-time, and request-latency sketches (quantiles plus
// power-of-two buckets).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	if snap == nil {
		http.Error(w, "no metrics registry configured", http.StatusServiceUnavailable)
		return
	}
	out := struct {
		Counters  map[string]int64                  `json:"counters"`
		Gauges    map[string]int64                  `json:"gauges"`
		Quantiles map[string]metrics.SketchSnapshot `json:"quantiles"`
	}{servePrefixed(snap.Counters), servePrefixed(snap.Gauges), servePrefixed(snap.Sketches)}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// servePrefixed returns the serve.* entries of m.
func servePrefixed[V any](m map[string]V) map[string]V {
	out := map[string]V{}
	for name, v := range m {
		if strings.HasPrefix(name, "serve.") {
			out[name] = v
		}
	}
	return out
}
