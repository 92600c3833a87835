//go:build !amd64

package gravity

// useKernels is false: the assembly is amd64 only, so every kernel call
// runs its Go body.
var useKernels = false

func p2p(t *float64, stride, n int, src *[4]float32, ids *int64, ns int, ox, oy, oz float64, eps2 float32, grav float64) {
	p2pGo(t, stride, n, src, ids, ns, ox, oy, oz, eps2, grav)
}

func m2p(t *float64, stride, n int, cx, cy, cz float64, gm, eps2 float32) {
	m2pGo(t, stride, n, cx, cy, cz, gm, eps2)
}

func reach(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8) {
	reachGo(boxes, nb, active, n, cx, cy, cz, rsq, open)
}
