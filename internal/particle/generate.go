package particle

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"paratreet/internal/vec"
)

// NewUniform generates n particles of equal mass distributed uniformly in
// box, the paper's "uniform particle distribution representing a volume of
// the present-day Universe" (Fig 10).
func NewUniform(n int, seed int64, box vec.Box) []Particle {
	rng := rand.New(rand.NewSource(seed))
	d := box.Dims()
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{
			ID:   int64(i),
			Mass: 1.0 / float64(n),
			Pos: vec.Vec3{
				X: box.Min.X + rng.Float64()*d.X,
				Y: box.Min.Y + rng.Float64()*d.Y,
				Z: box.Min.Z + rng.Float64()*d.Z,
			},
		}
	}
	return ps
}

// NewPlummer generates n particles following a Plummer-sphere density
// profile with scale radius a, centered at center — the classic clustered
// N-body initial condition (Fig 3's "clustered dataset").
func NewPlummer(n int, seed int64, center vec.Vec3, a float64) []Particle {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Particle, n)
	for i := range ps {
		// Inverse-transform sample the Plummer cumulative mass profile.
		x := rng.Float64()
		// Avoid the long tail blowing up the bounding box.
		if x > 0.999 {
			x = 0.999
		}
		r := a / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		u := 2*rng.Float64() - 1 // cos(theta)
		phi := 2 * math.Pi * rng.Float64()
		s := math.Sqrt(1 - u*u)
		ps[i] = Particle{
			ID:   int64(i),
			Mass: 1.0 / float64(n),
			Pos: center.Add(vec.Vec3{
				X: r * s * math.Cos(phi),
				Y: r * s * math.Sin(phi),
				Z: r * u,
			}),
		}
	}
	return ps
}

// NewClustered generates n particles in nclusters Plummer spheres whose
// centers are uniform in box — a highly non-uniform distribution that
// stresses decomposition and load balance.
func NewClustered(n int, seed int64, box vec.Box, nclusters int) []Particle {
	if nclusters < 1 {
		nclusters = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d := box.Dims()
	scale := math.Min(d.X, math.Min(d.Y, d.Z)) / (8 * float64(nclusters))
	if scale <= 0 {
		scale = 0.01
	}
	ps := make([]Particle, 0, n)
	per := n / nclusters
	for c := 0; c < nclusters; c++ {
		center := vec.Vec3{
			X: box.Min.X + rng.Float64()*d.X,
			Y: box.Min.Y + rng.Float64()*d.Y,
			Z: box.Min.Z + rng.Float64()*d.Z,
		}
		count := per
		if c == nclusters-1 {
			count = n - len(ps)
		}
		cluster := NewPlummer(count, rng.Int63(), center, scale)
		ps = append(ps, cluster...)
	}
	for i := range ps {
		ps[i].ID = int64(i)
	}
	return ps
}

// NewCosmological approximates a cosmological volume: a uniform background
// plus Gaussian overdensities ("halos"), matching the flavor of the SPH
// evaluation's "cosmological volume" (Fig 11).
func NewCosmological(n int, seed int64, box vec.Box) []Particle {
	rng := rand.New(rand.NewSource(seed))
	d := box.Dims()
	nhalos := 32
	background := n / 2
	ps := NewUniform(background, rng.Int63(), box)
	sigma := d.X / 40
	remaining := n - background
	per := remaining / nhalos
	for h := 0; h < nhalos; h++ {
		center := vec.Vec3{
			X: box.Min.X + rng.Float64()*d.X,
			Y: box.Min.Y + rng.Float64()*d.Y,
			Z: box.Min.Z + rng.Float64()*d.Z,
		}
		count := per
		if h == nhalos-1 {
			count = n - len(ps)
		}
		for i := 0; i < count; i++ {
			p := Particle{
				Mass: 1.0 / float64(n),
				Pos: vec.Vec3{
					X: center.X + rng.NormFloat64()*sigma,
					Y: center.Y + rng.NormFloat64()*sigma,
					Z: center.Z + rng.NormFloat64()*sigma,
				},
			}
			// Clamp into the box so the universe stays bounded.
			p.Pos = p.Pos.Max(box.Min).Min(box.Max)
			ps = append(ps, p)
		}
	}
	for i := range ps {
		ps[i].ID = int64(i)
	}
	return ps
}

// Generate builds n particles in the unit box from the named
// distribution, case-insensitively: uniform, plummer (scale radius 0.1 at
// the box centre), clustered (8 clusters) or cosmo (NewCosmological).
func Generate(dist string, n int, seed int64) ([]Particle, error) {
	box := vec.UnitBox()
	switch strings.ToLower(dist) {
	case "uniform":
		return NewUniform(n, seed, box), nil
	case "plummer":
		return NewPlummer(n, seed, box.Center(), 0.1), nil
	case "clustered":
		return NewClustered(n, seed, box, 8), nil
	case "cosmo":
		return NewCosmological(n, seed, box), nil
	}
	return nil, fmt.Errorf("unknown distribution %q (want uniform|plummer|clustered|cosmo)", dist)
}

// DiskParams configures a protoplanetary-disk initial condition (the §IV
// case study: a planetesimal disk plus a Jupiter-mass perturber orbiting a
// central star).
type DiskParams struct {
	// StarMass is the central star's mass (GM=1 units by default).
	StarMass float64
	// PlanetMass and PlanetA are the perturber's mass and semi-major axis.
	PlanetMass float64
	PlanetA    float64
	// RMin and RMax bound the planetesimal disk annulus.
	RMin, RMax float64
	// ZScale is the vertical Gaussian thickness of the disk.
	ZScale float64
	// BodyMass and BodyRadius describe each planetesimal.
	BodyMass   float64
	BodyRadius float64
	// Eccentricity is the RMS eccentricity excitation applied to the disk.
	Eccentricity float64
}

// DefaultDiskParams mirrors the paper's setup in scaled units: a Sun-mass
// star, a Jupiter-mass planet at 5.2 AU, and a planetesimal annulus interior
// to the planet containing the 3:1 (2.50 AU), 2:1 (3.27 AU), and 5:3
// (3.70 AU) mean-motion resonances.
func DefaultDiskParams() DiskParams {
	return DiskParams{
		StarMass:     1.0,
		PlanetMass:   9.5e-4, // Jupiter/Sun
		PlanetA:      5.2,
		RMin:         2.0,
		RMax:         4.5,
		ZScale:       0.02,
		BodyMass:     1e-10,
		BodyRadius:   3.3e-7, // ~50 km in AU
		Eccentricity: 0.02,
	}
}

// NewDisk generates a planetesimal disk of n bodies on near-circular
// Keplerian orbits about a unit-mass star at the origin, plus the star
// (index 0) and the perturbing planet (index 1). Velocities use G=1 units
// so the orbital period at radius a is 2*pi*a^(3/2).
func NewDisk(n int, seed int64, dp DiskParams) []Particle {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Particle, 0, n+2)

	star := Particle{ID: 0, Mass: dp.StarMass, Radius: 0.005}
	ps = append(ps, star)

	// Planet on a circular orbit in the midplane.
	vPlanet := math.Sqrt(dp.StarMass / dp.PlanetA)
	planet := Particle{
		ID:     1,
		Mass:   dp.PlanetMass,
		Pos:    vec.Vec3{X: dp.PlanetA},
		Vel:    vec.Vec3{Y: vPlanet},
		Radius: 5e-4,
	}
	ps = append(ps, planet)

	for i := 0; i < n; i++ {
		// Surface density ~ 1/r: sample r uniform in [RMin, RMax].
		r := dp.RMin + rng.Float64()*(dp.RMax-dp.RMin)
		theta := 2 * math.Pi * rng.Float64()
		z := rng.NormFloat64() * dp.ZScale

		// Rayleigh-distributed eccentricity gives the radial velocity
		// dispersion observed in relaxed planetesimal disks.
		ecc := dp.Eccentricity * math.Sqrt(-2*math.Log(1-rng.Float64()*0.9999))
		vCirc := math.Sqrt(dp.StarMass / r)
		vr := ecc * vCirc * rng.NormFloat64() * 0.5
		vt := vCirc * (1 + ecc*(rng.Float64()-0.5))

		cosT, sinT := math.Cos(theta), math.Sin(theta)
		ps = append(ps, Particle{
			ID:     int64(i + 2),
			Mass:   dp.BodyMass,
			Radius: dp.BodyRadius,
			Pos:    vec.Vec3{X: r * cosT, Y: r * sinT, Z: z},
			Vel: vec.Vec3{
				X: vr*cosT - vt*sinT,
				Y: vr*sinT + vt*cosT,
				Z: rng.NormFloat64() * dp.ZScale * vCirc * 0.1,
			},
		})
	}
	return ps
}
