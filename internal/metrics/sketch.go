package metrics

import (
	"math/bits"
	"sync/atomic"
)

// The quantile sketch is an HdrHistogram-style log-linear layout: values
// below 2*sketchSub are recorded exactly (one bucket per integer), and
// every higher power-of-two range is split into sketchSub linear
// sub-buckets. Reconstructing a bucket's midpoint therefore carries a
// relative error of at most 1/(2*sketchSub) — with sketchSub = 64 that is
// under 0.8%, and the documented bound tests assert is 1/sketchSub
// (1.5625%), the width of one sub-bucket. The layout covers the full
// int64 range (latencies in nanoseconds up to ~292 years), is fixed-size,
// and every operation is a handful of atomic adds, so sketches are cheap
// enough to sit on serve request paths and mergeable by bucketwise
// addition — the property the SLO watchdog's rolling window relies on.
const (
	// sketchSubBits sets the sub-bucket resolution per power of two.
	sketchSubBits = 6
	// sketchSub is the number of linear sub-buckets per power of two.
	sketchSub = 1 << sketchSubBits
	// sketchExact is the range [0, sketchExact) recorded exactly.
	sketchExact = 2 * sketchSub
	// sketchBuckets is the total bucket count: the exact range plus
	// sketchSub sub-buckets for each of the (64 - sketchSubBits - 1)
	// remaining value magnitudes.
	sketchBuckets = sketchExact + (64-sketchSubBits-1)*sketchSub
)

// sketchIndex maps a non-negative value to its bucket.
func sketchIndex(v int64) int {
	if v < sketchExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	// Keep sketchSubBits+1 mantissa bits: shift is how many low bits are
	// discarded, sub the retained mantissa in [sketchSub, 2*sketchSub).
	shift := bits.Len64(uint64(v)) - (sketchSubBits + 1)
	sub := int(v >> uint(shift))
	return sketchExact + (shift-1)*sketchSub + (sub - sketchSub)
}

// sketchMid returns the representative (midpoint) value of a bucket.
func sketchMid(idx int) int64 {
	if idx < sketchExact {
		return int64(idx)
	}
	shift := uint((idx-sketchExact)/sketchSub + 1)
	sub := int64(sketchSub + (idx-sketchExact)%sketchSub)
	lo := sub << shift
	return lo + (int64(1)<<shift)/2
}

// sketchPow2 returns the power-of-two bucket (bits.Len64 of the value)
// of every value in sketch bucket idx: each power of two is an exact
// union of sketch buckets, so the coarse histogram view loses nothing.
func sketchPow2(idx int) int {
	if idx < sketchExact {
		return bits.Len64(uint64(idx))
	}
	return sketchSubBits + 2 + (idx-sketchExact)/sketchSub
}

// Sketch is a lock-free, mergeable streaming quantile estimator over
// int64 values (typically nanoseconds): a log-linear HDR-style bucket
// array whose quantile reconstruction error is bounded by one sub-bucket
// width (relative error <= 1/64, exact below 128). It is the layer's one
// distribution instrument: its snapshot carries both the tail quantiles
// and the exact power-of-two histogram view. A nil *Sketch is disabled.
// Obtain sketches from Registry.Sketch; the serve layer's rolling SLO
// window merges per-slot sketches with Merge.
//
//paratreet:nilsafe
type Sketch struct {
	counts [sketchBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewSketch constructs an empty sketch: Registry.Sketch's, and
// registry-less users' (the SLO watchdog's window slots, report tooling).
func NewSketch() *Sketch {
	s := &Sketch{}
	s.Reset()
	return s
}

// Observe records one value. Negative values clamp to zero (the
// instruments record latencies; a negative duration is a clock artifact).
//
//paratreet:hotpath
func (s *Sketch) Observe(v int64) {
	if s == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s.counts[sketchIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	s.extend(v)
}

// extend widens the observed [min, max] to include v.
func (s *Sketch) extend(v int64) {
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Merge adds o's observations into s by bucketwise addition. Merging is
// exact: the merged sketch is indistinguishable from one that observed
// both streams. Concurrent Observe calls on either sketch are safe; a
// merge racing observers folds in a possibly-torn but valid view. Merging
// a sketch into itself doubles it. No-op when either side is nil.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil {
		return
	}
	if o == nil || o.count.Load() == 0 {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			s.counts[i].Add(n)
		}
	}
	s.count.Add(o.count.Load())
	s.sum.Add(o.sum.Load())
	s.extend(o.min.Load())
	s.extend(o.max.Load())
}

// Reset zeroes the sketch for reuse (rolling-window slots).
func (s *Sketch) Reset() {
	if s == nil {
		return
	}
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.count.Store(0)
	s.sum.Store(0)
	s.min.Store(int64(1)<<62 - 1)
	s.max.Store(-(int64(1)<<62 - 1))
}

// Count returns how many values were observed.
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values:
// the midpoint of the bucket holding the value of 0-based rank
// floor(q*count) (see rank), clamped into [min, max]. Returns 0 on an
// empty or nil sketch. The estimate is within one sub-bucket of the exact
// sample quantile, i.e. relative error <= 1/64 (exact for values below
// 128).
func (s *Sketch) Quantile(q float64) int64 {
	if s == nil {
		return 0
	}
	total := s.count.Load()
	if total <= 0 {
		return 0
	}
	r := rank(q, total)
	lo, hi := s.min.Load(), s.max.Load()
	var cum int64
	for i := range s.counts {
		cum += s.counts[i].Load()
		if cum > r {
			return clamp(sketchMid(i), lo, hi)
		}
	}
	return hi
}

// rank is the 0-based rank floor(q*n) of the q-quantile among n values,
// q clamped into [0,1] and the rank into [0,n-1]: the one rule Quantile
// and Snapshot share.
func rank(q float64, n int64) int64 {
	r := int64(min(max(q, 0), 1) * float64(n))
	return min(r, n-1)
}

// clamp bounds a reconstructed value by the observed extrema. Extrema
// torn by a concurrent Reset (lo > hi) bound nothing, which keeps a
// snapshot's quantiles monotone in q.
func clamp(v, lo, hi int64) int64 {
	if lo > hi {
		return v
	}
	return min(max(v, lo), hi)
}

// Bucket is one power-of-two histogram bucket of a sketch snapshot:
// Count values v with bits.Len64(v) == i were observed, Le = 2^i - 1 (the
// largest such value; Le = 0 holds v = 0).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// SketchSnapshot is a plain-value view of a Sketch: count, sum, and
// extrema, the standard tail quantiles, and the non-empty power-of-two
// Buckets. It is what snapshots, /stats, and the Prometheus exposition
// (a histogram family and a summary family) carry; the full log-linear
// bucket array stays in the live sketch.
type SketchSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P99     int64    `json:"p99"`
	P999    int64    `json:"p999"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the mean observed value (0 when empty).
func (s SketchSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot summarizes the sketch from one copy of its bucket array, so
// Count is the sum of the copied buckets and the quantiles and Buckets
// agree with it even while observers race. Sum and the extrema are read
// separately; under concurrent observers each is valid but may be torn
// against the buckets.
func (s *Sketch) Snapshot() SketchSnapshot {
	if s == nil {
		return SketchSnapshot{}
	}
	var counts [sketchBuckets]int64
	var n int64
	for i := range counts {
		counts[i] = s.counts[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return SketchSnapshot{}
	}
	snap := SketchSnapshot{Count: n, Sum: s.sum.Load(), Min: s.min.Load(), Max: s.max.Load()}
	quantiles := [...]struct {
		rank int64
		dst  *int64
	}{
		{rank(0.50, n), &snap.P50}, {rank(0.90, n), &snap.P90},
		{rank(0.99, n), &snap.P99}, {rank(0.999, n), &snap.P999},
	}
	next := 0
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		for ; next < len(quantiles) && cum > quantiles[next].rank; next++ {
			*quantiles[next].dst = clamp(sketchMid(i), snap.Min, snap.Max)
		}
		le := int64(1)<<sketchPow2(i) - 1
		if k := len(snap.Buckets) - 1; k >= 0 && snap.Buckets[k].Le == le {
			snap.Buckets[k].Count += c
		} else {
			snap.Buckets = append(snap.Buckets, Bucket{Le: le, Count: c})
		}
	}
	return snap
}
