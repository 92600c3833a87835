//go:build !amd64

package gravity

import "paratreet/internal/particle"

// useKernels is false: the vector kernels are amd64 assembly, so Pack
// does nothing and VisitSource runs the per-pair loop.
var useKernels = false

func p2p(t *float64, stride, n int, src *particle.Particle, ns int, eps2, grav float64) {
	panic("gravity: no vector kernels on this architecture")
}

func m2p(t *float64, stride, n int, cx, cy, cz, gm, eps2 float64) {
	panic("gravity: no vector kernels on this architecture")
}

func reach(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8) {
	panic("gravity: no vector kernels on this architecture")
}
