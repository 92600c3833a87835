// Command gravity is the production-style Barnes-Hut N-body driver: it
// reads or generates a particle dataset, evolves it under self-gravity
// with the library's multipole solver on a simulated distributed machine,
// reports per-iteration timing and energy diagnostics, and can write the
// final state back to disk in the native dataset format.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

func main() {
	var (
		input  = flag.String("i", "", "input dataset (native format); empty generates")
		output = flag.String("o", "", "output dataset path (optional)")
		n      = flag.Int("n", 100000, "particles to generate when -i is empty")
		dist   = flag.String("dist", "plummer", "generator: uniform|plummer|clustered|cosmo")
		iters  = flag.Int("iters", 10, "iterations")
		theta  = flag.Float64("theta", 0.7, "opening angle")
		soft   = flag.Float64("soft", 1e-4, "softening length")
		dt     = flag.Float64("dt", 1e-3, "leapfrog step (0 disables integration)")
		procs  = flag.Int("procs", 4, "simulated processes")
		wpp    = flag.Int("wpp", 2, "workers per process")
		bucket = flag.Int("bucket", 16, "bucket size")
		seed   = flag.Int64("seed", 42, "generator seed")
	)
	cfg := paratreet.Config{LBPeriod: 3}
	flag.Func("tree", "tree `type`: oct|kd|longest (default oct)", func(s string) (err error) {
		cfg.Tree, err = paratreet.ParseTree(s)
		return err
	})
	flag.Func("decomp", "`decomposition`: sfc|hilbert|oct|orb (default sfc)", func(s string) (err error) {
		cfg.Decomp, err = paratreet.ParseDecomp(s)
		return err
	})
	flag.Func("lb", "load `balancer`: off|sfc|spatial (default off)", func(s string) (err error) {
		cfg.LB, err = paratreet.ParseLB(s)
		return err
	})
	flag.Parse()
	cfg.Procs, cfg.WorkersPerProc, cfg.BucketSize = *procs, *wpp, *bucket
	par := gravity.Params{G: 1, Theta: *theta, Soft: *soft}
	if err := par.Validate(); err != nil {
		// A usage error, reported the way flag reports a malformed value.
		fmt.Fprintf(flag.CommandLine.Output(), "invalid -theta or -soft: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if math.IsNaN(*dt) || math.IsInf(*dt, 0) || *dt < 0 {
		fmt.Fprintf(flag.CommandLine.Output(), "invalid -dt %v: want a finite value of at least 0\n", *dt)
		flag.Usage()
		os.Exit(2)
	}

	ps, err := loadOrGenerate(*input, *dist, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	start := time.Now()
	forces := gravity.Driver(par, *dt)
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: forces.Traversal,
		PostTraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			forces.PostTraversal(s, iter)
			var ke, pe float64
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				ke += gravity.KineticEnergy(b.Particles)
				pe += gravity.PotentialEnergy(b.Particles)
			})
			fmt.Printf("iter %3d  E=%+.6f (K=%.6f U=%.6f)  build %v  leafshare %v\n",
				iter, ke+pe, ke, pe,
				s.LastBuildTime().Round(time.Millisecond),
				s.LeafShareTime().Round(10*time.Microsecond))
		},
	}
	if err := sim.Run(*iters, driver); err != nil {
		log.Fatal(err)
	}
	st := sim.Stats()
	m := sim.Machine()
	fmt.Printf("total %v for %d iterations on %d procs x %d workers, %s kernels\n",
		time.Since(start).Round(time.Millisecond), *iters, m.NumProcs(), m.Config().WorkersPerProc, gravity.Kernels())
	fmt.Printf("comm: %d messages, %.1f MB, %d node requests, %d fills\n",
		st.MessagesSent, float64(st.BytesSent)/1e6, st.NodeRequests, st.Fills)

	if *output != "" {
		if err := particle.WriteFile(*output, sim.Particles()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d particles to %s\n", len(sim.Particles()), *output)
	}
}

func loadOrGenerate(input, dist string, n int, seed int64) ([]particle.Particle, error) {
	if input != "" {
		return particle.ReadFile(input)
	}
	return particle.Generate(dist, n, seed)
}
