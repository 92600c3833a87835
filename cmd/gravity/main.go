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
	"os"
	"strings"
	"time"

	"paratreet"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

func main() {
	var (
		input   = flag.String("i", "", "input dataset (native format); empty generates")
		output  = flag.String("o", "", "output dataset path (optional)")
		n       = flag.Int("n", 100000, "particles to generate when -i is empty")
		dist    = flag.String("dist", "plummer", "generator: uniform|plummer|clustered|cosmo")
		iters   = flag.Int("iters", 10, "iterations")
		theta   = flag.Float64("theta", 0.7, "opening angle")
		soft    = flag.Float64("soft", 1e-4, "softening length")
		quad    = flag.Bool("quad", false, "enable quadrupole moments")
		dt      = flag.Float64("dt", 1e-3, "leapfrog step (0 disables integration)")
		procs   = flag.Int("procs", 4, "simulated processes")
		wpp     = flag.Int("wpp", 2, "workers per process")
		treeArg = flag.String("tree", "oct", "tree type: oct|kd|longest")
		decomp  = flag.String("decomp", "sfc", "decomposition: sfc|hilbert|oct|orb")
		lbArg   = flag.String("lb", "off", "load balancer: off|sfc|spatial")
		bucket  = flag.Int("bucket", 16, "bucket size")
		seed    = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()
	par := gravity.Params{G: 1, Theta: *theta, Soft: *soft, Quadrupole: *quad}
	if err := par.Validate(); err != nil {
		// A usage error, reported the way flag reports a malformed value.
		fmt.Fprintf(flag.CommandLine.Output(), "invalid -theta or -soft: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	ps, err := loadOrGenerate(*input, *dist, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	treeType, err := parseTree(*treeArg)
	if err != nil {
		log.Fatal(err)
	}
	decompType, err := parseDecomp(*decomp)
	if err != nil {
		log.Fatal(err)
	}
	lbMode, err := parseLB(*lbArg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := paratreet.Config{
		Procs: *procs, WorkersPerProc: *wpp,
		Tree: treeType, Decomp: decompType,
		BucketSize: *bucket, LB: lbMode, LBPeriod: 3,
	}
	sim, err := paratreet.NewSimulation[gravity.CentroidData](cfg, gravity.Accumulator{}, gravity.Codec{}, ps)
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()

	start := time.Now()
	driver := paratreet.DriverFuncs[gravity.CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[gravity.CentroidData]) gravity.Visitor[gravity.CentroidData] {
				return gravity.New(par)
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[gravity.CentroidData], iter int) {
			var ke, pe float64
			s.ForEachBucket(func(_ *paratreet.Partition[gravity.CentroidData], b *paratreet.Bucket) {
				if *dt > 0 {
					gravity.KickDrift(b.Particles, *dt)
				}
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
	kernels := gravity.Kernels()
	if par.Quadrupole {
		kernels = "go" // the vector kernels are monopole only
	}
	fmt.Printf("total %v for %d iterations on %d procs x %d workers, %s kernels\n",
		time.Since(start).Round(time.Millisecond), *iters, *procs, *wpp, kernels)
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
	box := paratreet.Box{Max: paratreet.V(1, 1, 1)}
	switch strings.ToLower(dist) {
	case "uniform":
		return particle.NewUniform(n, seed, box), nil
	case "plummer":
		return particle.NewPlummer(n, seed, paratreet.V(0.5, 0.5, 0.5), 0.1), nil
	case "clustered":
		return particle.NewClustered(n, seed, box, 8), nil
	case "cosmo":
		return particle.NewCosmological(n, seed, box), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", dist)
	}
}

func parseTree(s string) (paratreet.TreeType, error) {
	switch strings.ToLower(s) {
	case "oct":
		return paratreet.TreeOct, nil
	case "kd":
		return paratreet.TreeKD, nil
	case "longest":
		return paratreet.TreeLongestDim, nil
	default:
		return 0, fmt.Errorf("unknown -tree %q (want oct|kd|longest)", s)
	}
}

func parseDecomp(s string) (paratreet.DecompType, error) {
	switch strings.ToLower(s) {
	case "sfc":
		return paratreet.DecompSFC, nil
	case "hilbert":
		return paratreet.DecompSFCHilbert, nil
	case "oct":
		return paratreet.DecompOct, nil
	case "orb":
		return paratreet.DecompORB, nil
	default:
		return 0, fmt.Errorf("unknown -decomp %q (want sfc|hilbert|oct|orb)", s)
	}
}

func parseLB(s string) (paratreet.LBMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return paratreet.LBOff, nil
	case "sfc":
		return paratreet.LBSFC, nil
	case "spatial":
		return paratreet.LBSpatial, nil
	default:
		return 0, fmt.Errorf("unknown -lb %q (want off|sfc|spatial)", s)
	}
}
