package experiments

import (
	"fmt"
	"time"

	"paratreet"
	"paratreet/internal/baseline/gadget"
	"paratreet/internal/knn"
	"paratreet/internal/particle"
	"paratreet/internal/sph"
	"paratreet/internal/vec"
)

// knnParams are the SPH parameters of Fig 11 and the knn experiment.
var knnParams = sph.Params{K: 24, Gamma: 5.0 / 3.0, U: 1}

// measureKNN is the measured run of ParaTreeT's arm of Fig 11: SPH
// density by one up-and-down kNN traversal of a cosmological volume on w
// workers of the standard machine.
func measureKNN(opts Options, label string, w int) (measured, error) {
	ps := particle.NewCosmological(opts.N, opts.Seed, vec.UnitBox())
	return measure(opts, label, 1, linked(opts.procsFor(w)), knn.Accumulator{}, knn.Codec{}, ps, sph.Driver(knnParams))
}

// RunFig11 reproduces Fig 11: SPH density iteration time — ParaTreeT's
// k-nearest-neighbors algorithm vs the Gadget-2-style smoothing-length
// convergence by repeated ball searches — on a cosmological volume.
func RunFig11(opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{
		Title:  "Fig 11: SPH density iteration time, cosmological volume (seconds)",
		XLabel: "workers",
		Series: []string{"ParaTreeT", "Gadget2", "PTT-msgs", "G2-msgs", "G2-rounds"},
	}
	for _, w := range opts.Workers {
		row := Row{X: w, Values: map[string]float64{}}

		m, err := measureKNN(opts, fmt.Sprintf("fig11/ParaTreeT/w%d", w), w)
		if err != nil {
			return nil, err
		}
		row.Values["ParaTreeT"] = m.virtual.Seconds()
		row.Values["PTT-msgs"] = float64(m.stats.MessagesSent) / float64(opts.Iters)

		// Gadget-2 profile: one process per core, ball iteration. Each
		// convergence round is a fully synchronized tree traversal — the
		// repeated rounds and their message volume are what make this
		// algorithm lose badly at scale (latency is visible through the
		// message counters, not the virtual makespan).
		gcfg, link := gadget.Config(w, 16), linked(1, 1)
		gcfg.Latency, gcfg.PerByte = link.Latency, link.PerByte
		var rounds int
		gdriver := paratreet.DriverFuncs[knn.Data]{
			TraversalFn: func(s *paratreet.Simulation[knn.Data], iter int) {
				rounds = gadget.DensityIteration(s, knnParams, 2, 30, 0.05).Rounds
			},
		}
		ps := particle.NewCosmological(opts.N, opts.Seed, vec.UnitBox())
		m, err = measure(opts, fmt.Sprintf("fig11/Gadget2/w%d", w), 1, gcfg, knn.Accumulator{}, knn.Codec{}, ps, gdriver)
		if err != nil {
			return nil, err
		}
		row.Values["Gadget2"] = m.virtual.Seconds()
		row.Values["G2-msgs"] = float64(m.stats.MessagesSent) / float64(opts.Iters)
		row.Values["G2-rounds"] = float64(rounds)

		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: ParaTreeT ~10x faster at scale; the kNN algorithm avoids repeated synchronized ball-search rounds",
		"G2-rounds synchronized traversal rounds per iteration and the message columns carry the latency cost virtual time omits")
	res.Elapsed = time.Since(start)
	return res, nil
}

// RunKNN runs the ParaTreeT arm of Fig 11 — one up-and-down
// k-nearest-neighbors SPH density traversal on a cosmological volume —
// at the sweep's largest worker count. It is the standard workload for
// timeline capture (-trace with -metrics-out): the remote-neighbor
// traffic of the clustered dataset exercises every event kind the tracer
// records (tasks, fetch/fill flows, park/resume, message arrows).
func RunKNN(opts Options) (*Result, error) {
	start := time.Now()
	w := opts.largest()
	m, err := measureKNN(opts, fmt.Sprintf("knn/w%d", w), w)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title:  fmt.Sprintf("kNN SPH density, cosmological volume, %d workers", w),
		XLabel: "workers",
		Series: []string{"virtual-s", "wall-s", "msgs"},
		Rows: []Row{{X: w, Values: map[string]float64{
			"virtual-s": m.virtual.Seconds(),
			"wall-s":    m.wall.Seconds(),
			"msgs":      float64(m.stats.MessagesSent) / float64(opts.Iters),
		}}},
	}
	res.Notes = append(res.Notes,
		"single-cell run intended for timeline capture; pair with -trace and -metrics-out, and read the file with paratreet-trace")
	res.Elapsed = time.Since(start)
	return res, nil
}
