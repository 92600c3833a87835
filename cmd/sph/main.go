// Command sph runs smoothed-particle hydrodynamics density + pressure
// iterations over a generated or loaded dataset, with a choice between
// ParaTreeT's k-nearest-neighbors algorithm and the Gadget-2-style
// ball-iteration baseline (the Fig 11 comparison).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"paratreet"
	"paratreet/internal/baseline/gadget"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
)

func main() {
	var (
		input  = flag.String("i", "", "input dataset (native format); empty generates a cosmological volume")
		n      = flag.Int("n", 50000, "particles to generate when -i is empty")
		k      = flag.Int("k", 32, "target neighbor count")
		iters  = flag.Int("iters", 3, "iterations")
		algo   = flag.String("algo", "knn", "density algorithm: knn|gadget")
		procs  = flag.Int("procs", 4, "simulated processes")
		wpp    = flag.Int("wpp", 2, "workers per process")
		bucket = flag.Int("bucket", 16, "bucket size")
		seed   = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()
	if *k < 1 {
		// A usage error, reported the way flag reports a malformed value.
		fmt.Fprintf(flag.CommandLine.Output(), "invalid value %d for flag -k: want at least 1\n", *k)
		flag.Usage()
		os.Exit(2)
	}

	var ps []particle.Particle
	var err error
	if *input != "" {
		ps, err = particle.ReadFile(*input)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		ps = particle.NewCosmological(*n, *seed, paratreet.Box{Max: paratreet.V(1, 1, 1)})
	}

	par := sph.Params{K: *k, Gamma: 5.0 / 3.0, U: 1}
	var cfg paratreet.Config
	var driver paratreet.Driver[knn.Data]
	switch *algo {
	case "gadget":
		cfg = gadget.Config((*procs)*(*wpp), *bucket)
		driver = gadget.Driver(par, 2, 30, 0.05)
	case "knn":
		cfg = paratreet.Config{
			Procs: *procs, WorkersPerProc: *wpp,
			Tree: paratreet.TreeOct, Decomp: paratreet.DecompSFC, BucketSize: *bucket,
		}
		driver = paratreet.DriverFuncs[knn.Data]{
			TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				for _, p := range s.Partitions() {
					knn.Attach(p.Buckets(), par.K)
				}
				paratreet.StartUpAndDown(s, func(p *paratreet.Partition[knn.Data]) knn.Visitor {
					return knn.Visitor{K: par.K, ExcludeSelf: true}
				})
			},
			PostTraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				s.ForEachBucket(func(_ *paratreet.Partition[knn.Data], b *paratreet.Bucket) {
					st := b.State.(*knn.State)
					for i := range b.Particles {
						sph.DensityFromNeighbors(&b.Particles[i], st.Neighbors(i))
						sph.Pressure(&b.Particles[i], par)
					}
				})
			},
		}
	default:
		log.Fatalf("unknown -algo %q (want knn or gadget)", *algo)
	}

	sim, err := paratreet.NewSimulation[knn.Data](cfg, knn.Accumulator{}, knn.Codec{}, ps)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	start := time.Now()
	if err := sim.Run(*iters, driver); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var rhos []float64
	for _, p := range sim.Particles() {
		if p.Density > 0 {
			rhos = append(rhos, p.Density)
		}
	}
	sort.Float64s(rhos)
	fmt.Printf("algo=%s  n=%d  k=%d  iters=%d\n", *algo, len(sim.Particles()), *k, *iters)
	if len(rhos) > 0 {
		fmt.Printf("density median %.4g  p99/p10 %.1fx\n",
			rhos[len(rhos)/2], rhos[int(0.99*float64(len(rhos)-1))]/rhos[int(0.10*float64(len(rhos)-1))])
	}
	fmt.Printf("mean iteration %v (total %v)\n",
		(elapsed / time.Duration(*iters)).Round(time.Millisecond), elapsed.Round(time.Millisecond))
}
