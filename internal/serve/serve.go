// Package serve turns the one-shot traversal library into a resident
// spatial query service: a long-lived Engine holds a built
// Partitions-Subtrees world (the build/refresh path of
// paratreet.Simulation) and answers ad-hoc kNN, ball/range-search, and
// collision-probe queries by coalescing them into traversal waves (the
// reentrant query path). The Batcher applies the paper's core
// amortization idea — one tree walk serves many buckets — at request
// granularity: queries arriving while every wave slot is busy become
// buckets of a single transposed top-down wave (a query that finds a slot
// free launches at once, on no timer), with admission control
// (bounded queue, bounded in-flight waves), per-request deadlines, and a
// per-request timing breakdown returned to callers. Server exposes the
// whole thing over HTTP/JSON, with graceful drain and the instance-scoped
// pprof/expvar/snapshot introspection mux shared with paratreet-bench.
package serve

import (
	"fmt"
	"math"

	"paratreet/internal/vec"
)

// QueryKind selects which spatial question a Query asks.
type QueryKind int

const (
	// KNN asks for the K nearest particles to Pos.
	KNN QueryKind = iota
	// Range asks for every particle within Radius of Pos (ball search).
	Range
	// Probe asks which finite-radius bodies a probe body at Pos with
	// velocity Vel and radius Radius would touch within the time window
	// Dt (the collision application's swept-sphere test, one-sided).
	Probe

	numQueryKinds
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case KNN:
		return "knn"
	case Range:
		return "range"
	case Probe:
		return "probe"
	}
	return "unknown"
}

// Query is one spatial question against the resident tree.
type Query struct {
	Kind QueryKind
	// Pos is the query point.
	Pos vec.Vec3
	// K is the neighbor count (KNN only).
	K int
	// Radius is the search radius (Range) or the probe body's physical
	// radius (Probe).
	Radius float64
	// Vel is the probe body's velocity (Probe only).
	Vel vec.Vec3
	// Dt is the probe's time window (Probe only).
	Dt float64
}

// maxK bounds per-query neighbor heaps so one request cannot hold a
// service-sized allocation hostage.
const maxK = 4096

// Validate reports malformed queries; the HTTP layer maps the error to a
// 400 before the query ever reaches the batcher.
func (q *Query) Validate() error {
	if !finiteVec(q.Pos) {
		return fmt.Errorf("serve: query pos must be finite")
	}
	switch q.Kind {
	case KNN:
		if q.K <= 0 || q.K > maxK {
			return fmt.Errorf("serve: knn k must be in [1,%d], got %d", maxK, q.K)
		}
	case Range:
		if !(q.Radius > 0) || math.IsInf(q.Radius, 1) {
			return fmt.Errorf("serve: range radius must be positive and finite, got %v", q.Radius)
		}
	case Probe:
		if q.Radius < 0 || math.IsNaN(q.Radius) || q.Dt < 0 || math.IsNaN(q.Dt) || !finiteVec(q.Vel) {
			return fmt.Errorf("serve: probe radius, dt, and vel must be finite and non-negative")
		}
	default:
		return fmt.Errorf("serve: unknown query kind %d", q.Kind)
	}
	return nil
}

func finiteVec(v vec.Vec3) bool {
	return finite(v.X) && finite(v.Y) && finite(v.Z)
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Hit is one particle matched by a query.
type Hit struct {
	ID   int64
	Dist float64
	Pos  vec.Vec3
}

// Answer is one query's result. Hits are deterministically ordered: by
// ascending (Dist, ID) for KNN and Range, by ascending ID for Probe — so
// identical queries over an identical tree compare bit-identically
// regardless of batching, traversal interleaving, or delivery faults.
type Answer struct {
	Hits []Hit
}
