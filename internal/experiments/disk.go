package experiments

import (
	"fmt"
	"strings"
	"time"

	"paratreet"
	"paratreet/internal/baseline/changa"
	"paratreet/internal/collision"
	"paratreet/internal/gravity"
	"paratreet/internal/particle"
)

// diskDriver is the planetesimal-disk driver (§IV): each step runs a
// Barnes-Hut gravity traversal and a collision sweep over one tree,
// recording collisions into rec, then kicks and drifts every body by dt.
// mergeChanga first merges branch nodes the way the ChaNGa profile does.
func diskDriver(gp gravity.Params, dt, starMass float64, rec *collision.Recorder, mergeChanga bool) paratreet.Driver[collision.DiskData] {
	return paratreet.DriverFuncs[collision.DiskData]{
		TraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
			if mergeChanga {
				changa.MergeBranchNodes(s, collision.DiskCodec{})
			}
			s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			for _, p := range s.Partitions() {
				collision.Attach(p.Buckets())
			}
			paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) gravity.Visitor[collision.DiskData] {
				return collision.DiskGravityVisitor(gp)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[collision.DiskData]) collision.Visitor[collision.DiskData] {
				return collision.DiskCollisionVisitor(dt, starMass, rec, 2)
			})
		},
		PostTraversalFn: func(s *paratreet.Simulation[collision.DiskData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[collision.DiskData], b *paratreet.Bucket) {
				gravity.KickDrift(b.Particles, dt)
			})
		},
	}
}

// DiskResult carries the Fig 12 reproduction outputs.
type DiskResult struct {
	// N and Steps are the disk's body count and integration steps.
	N, Steps   int
	Collisions int
	RadialBins []int
	PeriodBins []int
	RMin, RMax float64
	Resonances map[string]float64
	Elapsed    time.Duration
}

// RunFig12 reproduces Fig 12: evolve a planetesimal disk of opts.N bodies
// with a Jupiter-mass perturber for opts.Iters steps under self-gravity +
// collision detection on the sweep's largest worker count, and bin the
// collisions by distance from the star and by orbital period, marking
// the 3:1, 2:1, and 5:3 mean-motion resonances. Body radii are inflated
// (4000x, 5000x at the Quick scale) so collisions happen at laptop N:
// the paper's 10M-body disk is far denser than a 20k-body one.
func RunFig12(opts Options) (*DiskResult, error) {
	start := time.Now()
	const dt = 0.02
	dp := particle.DefaultDiskParams()
	boost := 4000.0
	if opts.quick {
		boost = 5000
	}
	dp.BodyRadius *= boost
	w := opts.largest()
	cfg := octree(opts.procsFor(w))
	cfg.Tree, cfg.Decomp, cfg.BucketSize = paratreet.TreeLongestDim, paratreet.DecompORB, 32
	rec := collision.NewRecorder()
	// No warm-up: every step's collisions count.
	_, err := measure(opts, fmt.Sprintf("fig12/w%d", w), 0, cfg,
		collision.DiskAccumulator{}, collision.DiskCodec{}, particle.NewDisk(opts.N, opts.Seed, dp),
		diskDriver(gravity.Params{G: 1, Theta: 0.7, Soft: 1e-5}, dt, dp.StarMass, rec, false))
	if err != nil {
		return nil, err
	}
	const bins = 25
	return &DiskResult{
		N: opts.N, Steps: opts.Iters,
		Collisions: rec.Count(),
		RMin:       dp.RMin, RMax: dp.RMax,
		RadialBins: collision.Histogram(rec.Events, dp.RMin, dp.RMax, bins),
		PeriodBins: collision.PeriodHistogram(rec.Events, 0, periodMax, bins),
		Resonances: map[string]float64{
			"3:1": collision.ResonanceRadius(dp.PlanetA, 3, 1),
			"2:1": collision.ResonanceRadius(dp.PlanetA, 2, 1),
			"5:3": collision.ResonanceRadius(dp.PlanetA, 5, 3),
		},
		Elapsed: time.Since(start),
	}, nil
}

// periodMax is the upper edge, in code time units, of Fig 12's
// orbital-period histogram.
const periodMax = 75.0

// Format renders the disk result as two text histograms: collisions by
// distance from the star, then by orbital period.
func (d *DiskResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 12: planetesimal collision profile, %d bodies, %d steps (%d collisions total)\n",
		d.N, d.Steps, d.Collisions)
	width := (d.RMax - d.RMin) / float64(len(d.RadialBins))
	maxR := 1
	for _, c := range d.RadialBins {
		maxR = max(maxR, c)
	}
	for i, c := range d.RadialBins {
		r := d.RMin + (float64(i)+0.5)*width
		bar := strings.Repeat("*", c*50/maxR)
		marks := ""
		for name, rr := range d.Resonances {
			if rr >= d.RMin+float64(i)*width && rr < d.RMin+float64(i+1)*width {
				marks += " <-- " + name + " resonance"
			}
		}
		fmt.Fprintf(&b, "r=%5.2f AU %5d %s%s\n", r, c, bar, marks)
	}
	b.WriteString("\nperiod profile (collisions per orbital-period bin):\n")
	maxP := 1
	for _, c := range d.PeriodBins {
		maxP = max(maxP, c)
	}
	for i, c := range d.PeriodBins {
		if c == 0 {
			continue
		}
		p := periodMax * (float64(i) + 0.5) / float64(len(d.PeriodBins))
		fmt.Fprintf(&b, "P=%5.1f %4d %s\n", p, c, strings.Repeat("*", c*40/maxP))
	}
	fmt.Fprintf(&b, "elapsed: %v\n", d.Elapsed.Round(time.Millisecond))
	b.WriteString("paper: 258 collisions in a 10M-body disk, concentrated near the 2:1 resonance at 3.27 AU\n")
	return b.String()
}

// RunFig13 reproduces Fig 13: average iteration time of the disk
// simulation (gravity + collisions) with (a) the longest-dimension tree +
// ORB decomposition, (b) ParaTreeT's octree + SFC, and (c) the ChaNGa
// profile's octree, swept over worker counts.
func RunFig13(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "Fig 13: disk iteration time by tree/decomposition (seconds)",
		XLabel: "workers",
		Series: []string{"LongestDim", "ParaTreeT-Oct", "ChaNGa-Oct"},
	}
	dp := particle.DefaultDiskParams()
	dp.BodyRadius *= 2000
	gp := gravity.Params{G: 1, Theta: 0.6, Soft: 1e-5}
	dt := 0.01

	variants := []struct {
		name   string
		tree   paratreet.TreeType
		decomp paratreet.DecompType
		style  paratreet.TraversalStyle
		cache  paratreet.CachePolicy
		merge  bool
	}{
		{"LongestDim", paratreet.TreeLongestDim, paratreet.DecompORB, paratreet.StyleTransposed, paratreet.CacheWaitFree, false},
		{"ParaTreeT-Oct", paratreet.TreeOct, paratreet.DecompSFC, paratreet.StyleTransposed, paratreet.CacheWaitFree, false},
		{"ChaNGa-Oct", paratreet.TreeOct, paratreet.DecompSFC, paratreet.StylePerBucket, paratreet.CachePerThread, true},
	}
	for _, w := range opts.Workers {
		row := Row{X: w, Values: map[string]float64{}}
		for _, v := range variants {
			cfg := linked(opts.procsFor(w))
			cfg.Tree, cfg.Decomp, cfg.BucketSize = v.tree, v.decomp, 32
			cfg.Style, cfg.CachePolicy = v.style, v.cache
			rec := collision.NewRecorder()
			m, err := measure(opts, fmt.Sprintf("fig13/%s/w%d", v.name, w), 1, cfg,
				collision.DiskAccumulator{}, collision.DiskCodec{}, particle.NewDisk(opts.N, opts.Seed, dp),
				diskDriver(gp, dt, dp.StarMass, rec, v.merge))
			if err != nil {
				return nil, err
			}
			row.Values[v.name] = m.virtual.Seconds()
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: octree decomposition suffers disk load imbalance; the longest-dimension tree balances and wins at scale")
	res.Elapsed = time.Since(start)
	return res, nil
}
