// Package collision implements the planet-formation case study (§IV):
// collision detection between finite-radius planetesimals orbiting a
// central star with a perturbing planet. Each step, gravity is solved with
// the Barnes-Hut application and a second traversal sweeps for
// overlapping bodies; collisions are recorded with their radial position
// and orbital period so the resonance structure (Fig 12) can be binned.
package collision

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/tree"
	"paratreet/internal/vec"
)

// Data is the per-node Data for collision search: particle count, the
// largest body radius, and the largest speed in the subtree — enough to
// bound the swept volume of any contained body.
type Data struct {
	N         int
	MaxRadius float64
	MaxSpeed  float64
}

// Accumulator implements the Data abstraction for Data.
type Accumulator struct{}

// FromLeaf implements tree.Accumulator.
func (Accumulator) FromLeaf(ps []particle.Particle, _ vec.Box) Data {
	d := Data{N: len(ps)}
	for i := range ps {
		if ps[i].Radius > d.MaxRadius {
			d.MaxRadius = ps[i].Radius
		}
		if s := ps[i].Vel.Norm(); s > d.MaxSpeed {
			d.MaxSpeed = s
		}
	}
	return d
}

// Empty implements tree.Accumulator.
func (Accumulator) Empty() Data { return Data{} }

// Add implements tree.Accumulator.
func (Accumulator) Add(a, b Data) Data {
	a.N += b.N
	if b.MaxRadius > a.MaxRadius {
		a.MaxRadius = b.MaxRadius
	}
	if b.MaxSpeed > a.MaxSpeed {
		a.MaxSpeed = b.MaxSpeed
	}
	return a
}

// Codec serializes Data.
type Codec struct{}

// AppendData implements tree.DataCodec.
func (Codec) AppendData(dst []byte, d Data) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.N))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.MaxRadius))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.MaxSpeed))
	return dst
}

// DecodeData implements tree.DataCodec; a short buffer yields -1 so
// truncated fills surface as errors instead of panics.
func (Codec) DecodeData(b []byte) (Data, int) {
	if len(b) < 24 {
		return Data{}, -1
	}
	return Data{
		N:         int(binary.LittleEndian.Uint64(b)),
		MaxRadius: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxSpeed:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}, 24
}

// Event records one detected collision.
type Event struct {
	A, B int64
	Pos  vec.Vec3
	// R is the cylindrical distance from the central star (assumed at the
	// origin).
	R float64
	// Period is the orbital period of body A about the star, from the
	// vis-viva semi-major axis.
	Period float64
}

// Recorder collects collision events across partitions, deduplicating
// pairs (each collision is found from both sides).
type Recorder struct {
	mu     sync.Mutex
	seen   map[[2]int64]bool
	Events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: make(map[[2]int64]bool)}
}

// Record adds an event if its pair is new.
func (r *Recorder) Record(e Event) {
	key := [2]int64{e.A, e.B}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.Events = append(r.Events, e)
}

// Count returns the number of distinct collisions recorded.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.Events)
}

// Visitor detects overlapping bodies: two bodies collide within the step
// when their separation is at most the sum of radii plus their relative
// motion over Dt (a conservative swept-sphere test). StarMass (G=1) is
// used to derive orbital periods for recorded events.
//
// Visitor is generic over the node Data type D (Get extracts the collision
// Data) so the disk case study can pair it with gravity moments in one
// tree; use New for the bare instantiation.
type Visitor[D any] struct {
	Dt       float64
	StarMass float64
	Rec      *Recorder
	// MinID ignores bodies with ID below it (the star and planet).
	MinID int64
	Get   func(d *D) *Data
}

// New returns the collision visitor over bare Data.
func New(dt, starMass float64, rec *Recorder, minID int64) Visitor[Data] {
	return Visitor[Data]{Dt: dt, StarMass: starMass, Rec: rec, MinID: minID,
		Get: func(d *Data) *Data { return d }}
}

// Open implements traverse.Visitor: descend while the source box, inflated
// by the largest radii and sweep distances on both sides, can reach the
// target box.
func (v Visitor[D]) Open(source *tree.Node[D], target *traverse.Bucket) bool {
	data := v.Get(&source.Data)
	if data.N == 0 {
		return false
	}
	st := target.State.(*State)
	reach := data.MaxRadius + st.MaxRadius +
		v.Dt*(data.MaxSpeed+st.MaxSpeed)
	return source.Box.BoxDistSq(target.Box) <= reach*reach
}

// Node implements traverse.Visitor: pruned nodes cannot contain partners.
func (v Visitor[D]) Node(source *tree.Node[D], target *traverse.Bucket) {}

// Leaf implements traverse.Visitor: exact pair tests.
func (v Visitor[D]) Leaf(source *tree.Node[D], target *traverse.Bucket) {
	for i := range target.Particles {
		p := &target.Particles[i]
		if p.ID < v.MinID {
			continue
		}
		for j := range source.Particles {
			s := &source.Particles[j]
			if s.ID <= p.ID || s.ID < v.MinID {
				continue // each unordered pair once (plus self-skip)
			}
			sep := s.Pos.Sub(p.Pos).Norm()
			sweep := s.Vel.Sub(p.Vel).Norm() * v.Dt
			if sep <= p.Radius+s.Radius+sweep {
				v.Rec.Record(Event{
					A: p.ID, B: s.ID,
					Pos:    p.Pos,
					R:      math.Hypot(p.Pos.X, p.Pos.Y),
					Period: OrbitalPeriod(p, v.StarMass),
				})
			}
		}
	}
}

// State is the per-bucket collision-search state: the bucket's largest
// body radius and speed, for the open() bound.
type State struct {
	MaxRadius float64
	MaxSpeed  float64
}

// Attach initializes collision state on the buckets; the states of one
// call share one slab.
func Attach(buckets []*traverse.Bucket) {
	states := make([]State, len(buckets))
	for bi, b := range buckets {
		st := &states[bi]
		for i := range b.Particles {
			if r := b.Particles[i].Radius; r > st.MaxRadius {
				st.MaxRadius = r
			}
			if s := b.Particles[i].Vel.Norm(); s > st.MaxSpeed {
				st.MaxSpeed = s
			}
		}
		b.State = st
	}
}

// OrbitalPeriod returns the period of p's osculating orbit about a star of
// the given mass at the origin (G=1), via the vis-viva equation. It
// returns 0 for unbound or degenerate orbits.
func OrbitalPeriod(p *particle.Particle, starMass float64) float64 {
	r := p.Pos.Norm()
	if r == 0 || starMass <= 0 {
		return 0
	}
	inv := 2/r - p.Vel.NormSq()/starMass
	if inv <= 0 {
		return 0 // unbound
	}
	a := 1 / inv
	return 2 * math.Pi * math.Sqrt(a*a*a/starMass)
}

// ResonanceRadius returns the semi-major axis of the j:k mean-motion
// resonance with a planet at semi-major axis aPlanet (interior resonances
// have j > k: the body orbits j times per k planet orbits).
func ResonanceRadius(aPlanet float64, j, k int) float64 {
	return aPlanet * math.Pow(float64(k)/float64(j), 2.0/3.0)
}

// BruteForce finds all colliding pairs by O(N²) sweep, the validation
// reference. Bodies with ID below minID are ignored.
func BruteForce(ps []particle.Particle, dt float64, minID int64) [][2]int64 {
	var out [][2]int64
	for i := range ps {
		if ps[i].ID < minID {
			continue
		}
		for j := i + 1; j < len(ps); j++ {
			if ps[j].ID < minID {
				continue
			}
			sep := ps[j].Pos.Sub(ps[i].Pos).Norm()
			sweep := ps[j].Vel.Sub(ps[i].Vel).Norm() * dt
			if sep <= ps[i].Radius+ps[j].Radius+sweep {
				a, b := ps[i].ID, ps[j].ID
				if a > b {
					a, b = b, a
				}
				out = append(out, [2]int64{a, b})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Histogram bins events by cylindrical radius into nbins over [rmin,rmax],
// the radial collision profile of Fig 12.
func Histogram(events []Event, rmin, rmax float64, nbins int) []int {
	bins := make([]int, nbins)
	if rmax <= rmin || nbins == 0 {
		return bins
	}
	w := (rmax - rmin) / float64(nbins)
	for _, e := range events {
		if e.R < rmin {
			continue
		}
		if b := int((e.R - rmin) / w); b < nbins {
			bins[b]++
		}
	}
	return bins
}

// PeriodHistogram bins events by orbital period, Fig 12's dotted curve.
func PeriodHistogram(events []Event, pmin, pmax float64, nbins int) []int {
	bins := make([]int, nbins)
	if pmax <= pmin || nbins == 0 {
		return bins
	}
	w := (pmax - pmin) / float64(nbins)
	for _, e := range events {
		if e.Period < pmin {
			continue
		}
		if b := int((e.Period - pmin) / w); b < nbins {
			bins[b]++
		}
	}
	return bins
}
