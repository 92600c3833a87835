package gravity

import (
	"paratreet"
	"paratreet/internal/particle"
)

// Driver returns the Barnes-Hut driver: each iteration zeroes every
// particle's acceleration and potential, then runs one top-down gravity
// traversal with par. When dt > 0 it then kicks and drifts every particle
// by dt; dt == 0 computes static forces.
func Driver(par Params, dt float64) paratreet.Driver[CentroidData] {
	d := paratreet.DriverFuncs[CentroidData]{
		TraversalFn: func(s *paratreet.Simulation[CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[CentroidData], b *paratreet.Bucket) {
				particle.ResetAcc(b.Particles)
			})
			paratreet.StartDown(s, func(p *paratreet.Partition[CentroidData]) Visitor[CentroidData] {
				return New(par)
			})
		},
	}
	if dt > 0 {
		d.PostTraversalFn = func(s *paratreet.Simulation[CentroidData], iter int) {
			s.ForEachBucket(func(_ *paratreet.Partition[CentroidData], b *paratreet.Bucket) {
				KickDrift(b.Particles, dt)
			})
		}
	}
	return d
}
