// Package particle defines the particle representation shared by every
// application in the framework, binary dataset I/O, and the synthetic
// workload generators used by the evaluation (uniform volume, clustered
// Plummer spheres, cosmological multi-blob volumes, and planetesimal disks).
package particle

import "paratreet/internal/vec"

// Particle is a single simulation body. Gravity uses Mass/Pos/Vel/Acc;
// SPH additionally uses Density/Pressure/SmoothLen; collision detection
// uses Radius. Key is the particle's space-filling-curve key, assigned
// during decomposition. Order is the particle's index in SFC order, used to
// derive stable bucket identities.
type Particle struct {
	ID   int64
	Mass float64
	Pos  vec.Vec3
	Vel  vec.Vec3
	Acc  vec.Vec3

	// Key is the SFC key within the current universe box.
	Key uint64
	// Partition is the index of the Partition this particle is assigned to
	// by the decomposition step.
	Partition int32

	// Radius is the physical radius for finite-size bodies (collisions).
	Radius float64

	// SPH state.
	Density   float64
	Pressure  float64
	SmoothLen float64

	// Potential is the gravitational potential, for energy diagnostics.
	Potential float64
}

// BoundingBox returns the smallest box containing all particle positions.
func BoundingBox(ps []Particle) vec.Box {
	b, _ := Bounds(ps)
	return b
}

// Bounds returns the smallest box containing all particle positions and
// the index of the first particle with a NaN or infinite coordinate, -1
// when every position is finite (the box is meaningful only then).
//
//paratreet:hotpath
func Bounds(ps []Particle) (vec.Box, int) {
	b := vec.EmptyBox()
	// x*0 is 0 for a finite x and NaN otherwise, so the sum stays 0 until
	// a non-finite coordinate poisons it: one test after the loop instead
	// of three per particle.
	var poison float64
	for i := range ps {
		p := &ps[i].Pos
		poison += p.X*0 + p.Y*0 + p.Z*0
		if p.X < b.Min.X {
			b.Min.X = p.X
		}
		if p.X > b.Max.X {
			b.Max.X = p.X
		}
		if p.Y < b.Min.Y {
			b.Min.Y = p.Y
		}
		if p.Y > b.Max.Y {
			b.Max.Y = p.Y
		}
		if p.Z < b.Min.Z {
			b.Min.Z = p.Z
		}
		if p.Z > b.Max.Z {
			b.Max.Z = p.Z
		}
	}
	if poison == 0 {
		return b, -1
	}
	for i := range ps {
		if p := ps[i].Pos; p.X*0+p.Y*0+p.Z*0 != 0 {
			return b, i
		}
	}
	return b, -1
}

// TotalMass returns the summed mass of the particles.
func TotalMass(ps []Particle) float64 {
	var m float64
	for i := range ps {
		m += ps[i].Mass
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position. It returns the zero
// vector for an empty or massless set.
func CenterOfMass(ps []Particle) vec.Vec3 {
	var moment vec.Vec3
	var m float64
	for i := range ps {
		moment = moment.Add(ps[i].Pos.Scale(ps[i].Mass))
		m += ps[i].Mass
	}
	if m == 0 {
		return vec.Vec3{}
	}
	return moment.Scale(1 / m)
}

// KeysSorted reports whether the slice is in ascending key order.
func KeysSorted(ps []Particle) bool {
	for i := 1; i < len(ps); i++ {
		if ps[i].Key < ps[i-1].Key {
			return false
		}
	}
	return true
}

// ResetAcc zeroes the acceleration and potential of every particle, the
// per-iteration reset before a force traversal.
func ResetAcc(ps []Particle) {
	for i := range ps {
		ps[i].Acc = vec.Vec3{}
		ps[i].Potential = 0
	}
}

// Clone returns a deep copy of the particle slice.
func Clone(ps []Particle) []Particle {
	out := make([]Particle, len(ps))
	copy(out, ps)
	return out
}
