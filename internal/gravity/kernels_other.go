//go:build !amd64

package gravity

import "paratreet/internal/particle"

// useKernels is false: the assembly is amd64 only, so every kernel call
// runs its Go body.
var useKernels = false

func p2p(t *float64, stride, n int, src *particle.Particle, ns int, eps2, grav float64) {
	p2pGo(t, stride, n, src, ns, eps2, grav)
}

func m2p(t *float64, stride, n int, cx, cy, cz, gm, eps2 float64) {
	m2pGo(t, stride, n, cx, cy, cz, gm, eps2)
}

func reach(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8) {
	reachGo(boxes, nb, active, n, cx, cy, cz, rsq, open)
}
