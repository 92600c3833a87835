package gravity_test

import (
	"math"
	"testing"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
	"paratreet/internal/vec"
)

func TestCentroid(t *testing.T) {
	ps := []particle.Particle{
		{Mass: 1, Pos: vec.V(0, 0, 0)},
		{Mass: 3, Pos: vec.V(4, 0, 0)},
	}
	d := gravity.Accumulator{}.FromLeaf(ps, vec.UnitBox())
	if d.Mass != 4 {
		t.Errorf("mass %v", d.Mass)
	}
	if c := d.Centroid(); c != vec.V(3, 0, 0) {
		t.Errorf("centroid %v", c)
	}
	var zero gravity.CentroidData
	if zero.Centroid() != (vec.Vec3{}) {
		t.Error("massless centroid should be zero")
	}
}

func TestAccumulatorAdditivity(t *testing.T) {
	a := particle.NewUniform(50, 1, vec.UnitBox())
	b := particle.NewUniform(70, 2, vec.UnitBox())
	acc := gravity.Accumulator{}
	da := acc.FromLeaf(a, vec.UnitBox())
	db := acc.FromLeaf(b, vec.UnitBox())
	whole := acc.FromLeaf(append(particle.Clone(a), b...), vec.UnitBox())
	sum := acc.Add(da, db)
	if math.Abs(sum.Mass-whole.Mass) > 1e-12 {
		t.Errorf("mass: %v vs %v", sum.Mass, whole.Mass)
	}
	if sum.M1.Sub(whole.M1).Norm() > 1e-12 {
		t.Errorf("M1: %v vs %v", sum.M1, whole.M1)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ps := particle.NewUniform(20, 4, vec.UnitBox())
	d := gravity.Accumulator{}.FromLeaf(ps, vec.UnitBox())
	blob := gravity.Codec{}.AppendData(nil, d)
	got, used := gravity.Codec{}.DecodeData(blob)
	if used != len(blob) {
		t.Fatalf("used %d of %d", used, len(blob))
	}
	if got != d {
		t.Fatalf("round trip %+v vs %+v", got, d)
	}
	if len(blob) != 32 {
		t.Fatalf("encoded %d bytes, want 32", len(blob))
	}
	for n := range len(blob) {
		if _, used := (gravity.Codec{}).DecodeData(blob[:n]); used != -1 {
			t.Errorf("%d-byte prefix decoded with used %d, want -1", n, used)
		}
	}
}

func TestDirectSymmetry(t *testing.T) {
	// Two equal masses: equal and opposite forces, correct magnitude.
	ps := []particle.Particle{
		{ID: 0, Mass: 2, Pos: vec.V(0, 0, 0)},
		{ID: 1, Mass: 2, Pos: vec.V(1, 0, 0)},
	}
	gravity.Direct(ps, gravity.Params{G: 1, Soft: 0})
	if ps[0].Acc.Add(ps[1].Acc).Norm() > 1e-12 {
		t.Error("forces not equal and opposite")
	}
	if math.Abs(ps[0].Acc.X-2) > 1e-12 { // G*m2/r² = 2
		t.Errorf("force magnitude %v, want 2", ps[0].Acc.X)
	}
	if math.Abs(ps[0].Potential+2) > 1e-12 { // -G*m2/r
		t.Errorf("potential %v, want -2", ps[0].Potential)
	}
}

func TestDirectMomentumConservation(t *testing.T) {
	ps := particle.NewPlummer(200, 5, vec.Vec3{}, 1)
	gravity.Direct(ps, gravity.DefaultParams())
	var f vec.Vec3
	for i := range ps {
		f = f.Add(ps[i].Acc.Scale(ps[i].Mass))
	}
	if f.Norm() > 1e-10 {
		t.Errorf("net force %v", f)
	}
}

func runBH(t *testing.T, cfg paratreet.Config, ps []particle.Particle, par gravity.Params) []particle.Particle {
	t.Helper()
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
	}
	if err := sim.Run(1, driver); err != nil {
		t.Fatal(err)
	}
	out := particle.Clone(sim.Particles())
	// Sort by ID for comparison with the reference.
	byID := make([]particle.Particle, len(out))
	for i := range out {
		byID[out[i].ID] = out[i]
	}
	return byID
}

func TestBarnesHutMatchesDirect(t *testing.T) {
	const n = 800
	ps := particle.NewPlummer(n, 6, vec.V(0.5, 0.5, 0.5), 0.1)
	par := gravity.Params{G: 1, Theta: 0.5, Soft: 1e-3}

	ref := particle.Clone(ps)
	gravity.Direct(ref, par)
	refByID := make([]particle.Particle, n)
	for i := range ref {
		refByID[ref[i].ID] = ref[i]
	}

	cfg := paratreet.Config{
		Procs: 2, WorkersPerProc: 2,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC,
		BucketSize: 8, CachePolicy: paratreet.CacheWaitFree,
	}
	got := runBH(t, cfg, particle.Clone(ps), par)

	errs := gravity.AccelError(got, refByID)
	med := gravity.MedianError(errs)
	if med > 0.02 {
		t.Errorf("median acceleration error %.4f, want < 2%% at theta=0.5", med)
	}
	// Max error should also be bounded for monopole BH.
	max := 0.0
	for _, e := range errs {
		if e > max {
			max = e
		}
	}
	if max > 0.5 {
		t.Errorf("max acceleration error %.4f", max)
	}
}

func TestBHAcrossTreeTypes(t *testing.T) {
	const n = 500
	ps := particle.NewUniform(n, 8, vec.UnitBox())
	par := gravity.Params{G: 1, Theta: 0.5, Soft: 1e-3}
	ref := particle.Clone(ps)
	gravity.Direct(ref, par)
	refByID := make([]particle.Particle, n)
	for i := range ref {
		refByID[ref[i].ID] = ref[i]
	}
	for _, tt := range []paratreet.TreeType{paratreet.TreeOct, paratreet.TreeKD, paratreet.TreeLongestDim} {
		cfg := paratreet.Config{
			Procs: 2, WorkersPerProc: 1,
			Tree: tt, Decomp: paratreet.DecompSFC,
			BucketSize: 8, CachePolicy: paratreet.CacheWaitFree,
		}
		got := runBH(t, cfg, particle.Clone(ps), par)
		med := gravity.MedianError(gravity.AccelError(got, refByID))
		if med > 0.03 {
			t.Errorf("%v: median error %.4f", tt, med)
		}
	}
}

func TestEnergyAndLeapfrog(t *testing.T) {
	// A two-body circular orbit conserves energy over a few steps.
	ps := []particle.Particle{
		{ID: 0, Mass: 1, Pos: vec.V(0, 0, 0)},
		{ID: 1, Mass: 1e-6, Pos: vec.V(1, 0, 0), Vel: vec.V(0, 1, 0)},
	}
	par := gravity.Params{G: 1, Soft: 0}
	gravity.Direct(ps, par)
	e0 := gravity.KineticEnergy(ps) + gravity.PotentialEnergy(ps)
	dt := 0.001
	for step := 0; step < 1000; step++ {
		gravity.KickDrift(ps, dt)
		gravity.Direct(ps, par)
	}
	e1 := gravity.KineticEnergy(ps) + gravity.PotentialEnergy(ps)
	if math.Abs(e1-e0)/math.Abs(e0) > 0.01 {
		t.Errorf("energy drift %.3f%% over one orbit", 100*math.Abs(e1-e0)/math.Abs(e0))
	}
	// The orbit should stay near radius 1.
	r := ps[1].Pos.Sub(ps[0].Pos).Norm()
	if r < 0.9 || r > 1.1 {
		t.Errorf("orbit radius drifted to %v", r)
	}
}

func TestMedianError(t *testing.T) {
	if gravity.MedianError(nil) != 0 {
		t.Error("empty median")
	}
	if m := gravity.MedianError([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

func TestParamsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		p    gravity.Params
		ok   bool
	}{
		{"default", gravity.DefaultParams(), true},
		{"exact theta 0", gravity.Params{G: 1, Theta: 0, Soft: 1e-4}, true},
		{"no softening", gravity.Params{G: 1, Theta: 0.7, Soft: 0}, true},
		{"negative G", gravity.Params{G: -1, Theta: 0.7}, true},
		{"NaN theta", gravity.Params{G: 1, Theta: nan, Soft: 1e-4}, false},
		{"negative theta", gravity.Params{G: 1, Theta: -0.7, Soft: 1e-4}, false},
		{"infinite theta", gravity.Params{G: 1, Theta: inf, Soft: 1e-4}, false},
		{"NaN softening", gravity.Params{G: 1, Theta: 0.7, Soft: nan}, false},
		{"negative softening", gravity.Params{G: 1, Theta: 0.7, Soft: -1e-4}, false},
		{"infinite softening", gravity.Params{G: 1, Theta: 0.7, Soft: inf}, false},
		{"NaN G", gravity.Params{G: nan, Theta: 0.7, Soft: 1e-4}, false},
		{"infinite G", gravity.Params{G: -inf, Theta: 0.7, Soft: 1e-4}, false},
	} {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
