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

// maxExtent bounds every length a query names — each pos and vel
// component, the radius, and the probe's sweep |vel|·dt — so the
// distance arithmetic against resident particles stays finite: squared
// separations stay near 3·(2·maxExtent)², far below MaxFloat64. Past it
// a distance overflows to +Inf, which kNN silently drops and JSON cannot
// encode.
const maxExtent = 1e150

// Validate reports malformed queries; the HTTP layer maps the error to a
// 400 before the query ever reaches the batcher. Every check is written
// as the negation of "in range" so that NaN is refused too.
func (q *Query) Validate() error {
	if !boundedVec(q.Pos) {
		return fmt.Errorf("serve: query pos components must be finite and within ±%g", maxExtent)
	}
	switch q.Kind {
	case KNN:
		if q.K <= 0 || q.K > maxK {
			return fmt.Errorf("serve: knn k must be in [1,%d], got %d", maxK, q.K)
		}
	case Range:
		if !(q.Radius > 0 && q.Radius <= maxExtent) {
			return fmt.Errorf("serve: range radius must be in (0, %g], got %v", maxExtent, q.Radius)
		}
	case Probe:
		if !(q.Radius >= 0 && q.Radius <= maxExtent && q.Dt >= 0 && boundedVec(q.Vel) && q.Vel.Norm()*q.Dt <= maxExtent) {
			return fmt.Errorf("serve: probe radius, dt, and vel must be non-negative and finite, with radius and |vel|·dt within %g", maxExtent)
		}
	default:
		return fmt.Errorf("serve: unknown query kind %d", q.Kind)
	}
	return nil
}

// boundedVec reports whether every component of v is within ±maxExtent
// (false for NaN and ±Inf).
func boundedVec(v vec.Vec3) bool {
	return math.Abs(v.X) <= maxExtent && math.Abs(v.Y) <= maxExtent && math.Abs(v.Z) <= maxExtent
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
