// SPH density and pressure forces over a cosmological volume, composing
// the library's knn and sph applications: one up-and-down k-nearest-
// neighbors traversal per iteration fixes each particle's smoothing
// length and neighbor list (ParaTreeT's algorithm from §III-B), then
// density, equation of state, and pressure accelerations are evaluated
// from the lists.
//
// Run with: go run ./examples/sph
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"

	"paratreet"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
)

func main() {
	var (
		n     = flag.Int("n", 30000, "number of particles")
		k     = flag.Int("k", 32, "neighbors per particle")
		iters = flag.Int("iters", 3, "iterations")
		procs = flag.Int("procs", 2, "simulated processes")
		wpp   = flag.Int("wpp", 2, "workers per process")
	)
	flag.Parse()
	if *k < 1 {
		// A usage error, reported the way flag reports a malformed value.
		fmt.Fprintf(flag.CommandLine.Output(), "invalid value %d for flag -k: want at least 1\n", *k)
		flag.Usage()
		os.Exit(2)
	}

	par := sph.Params{K: *k, Gamma: 5.0 / 3.0, U: 1}
	ps := particle.NewCosmological(*n, 7, paratreet.Box{Max: paratreet.V(1, 1, 1)})
	sim, err := paratreet.NewSimulation[knn.Data](paratreet.Config{
		Procs: *procs, WorkersPerProc: *wpp,
		Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: 16,
	}, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	driver := paratreet.DriverFuncs[knn.Data]{
		TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			for _, p := range s.Partitions() {
				knn.Attach(p.Buckets(), par.K)
			}
			paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
				return knn.Visitor{K: par.K, ExcludeSelf: true}
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
			// Density + EOS from the neighbor lists, then pressure forces.
			state := map[int64][3]float64{}
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					sph.DensityFromNeighbors(&b.Particles[i], st.Neighbors(i))
					sph.Pressure(&b.Particles[i], par)
					p := b.Particles[i]
					state[p.ID] = [3]float64{p.Density, p.Pressure, p.SmoothLen}
				}
			})
			lookup := func(id int64) (float64, float64, float64, bool) {
				v, ok := state[id]
				return v[0], v[1], v[2], ok
			}
			s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
				st := b.State.(*knn.State)
				for i := range b.Particles {
					b.Particles[i].Acc = paratreet.Vec3{}
					sph.PressureAccel(&b.Particles[i], st.Neighbors(i), lookup)
				}
			})
		},
	}
	if err := sim.Run(*iters, driver); err != nil {
		log.Fatal(err)
	}

	// Report the density distribution: a cosmological volume should span
	// orders of magnitude between voids and halos.
	var rhos []float64
	for _, p := range sim.Particles() {
		if p.Density > 0 {
			rhos = append(rhos, p.Density)
		}
	}
	sort.Float64s(rhos)
	q := func(f float64) float64 { return rhos[int(f*float64(len(rhos)-1))] }
	fmt.Printf("SPH over %d particles, k=%d:\n", *n, *k)
	fmt.Printf("  density quantiles  10%%: %.3g  50%%: %.3g  90%%: %.3g  99%%: %.3g\n",
		q(0.10), q(0.50), q(0.90), q(0.99))
	fmt.Printf("  density dynamic range: %.1fx\n", q(0.99)/q(0.10))
	fmt.Printf("  log10 span: %.2f decades\n", math.Log10(q(0.99)/q(0.10)))
	fmt.Printf("  iteration time: %v\n", sim.LastIterTime().Round(1e6))
}
