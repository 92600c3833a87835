package gravity

import "paratreet/internal/cpu"

// useKernels selects the assembly over the Go bodies for every kernel
// call: set once, from the CPUID probe the kNN kernels share.
var useKernels = cpu.AVX2

// The kernel calls: each runs its AVX2 body where useKernels is set.
func p2p(t *float64, stride, n int, src *[4]float32, ids *int64, ns int, ox, oy, oz float64, eps2 float32, grav float64) {
	if useKernels {
		p2pAVX2(t, stride, n, src, ids, ns, ox, oy, oz, eps2, grav)
	} else {
		p2pGo(t, stride, n, src, ids, ns, ox, oy, oz, eps2, grav)
	}
}

func m2p(t *float64, stride, n int, cx, cy, cz float64, gm, eps2 float32) {
	if useKernels {
		m2pAVX2(t, stride, n, cx, cy, cz, gm, eps2)
	} else {
		m2pGo(t, stride, n, cx, cy, cz, gm, eps2)
	}
}

func reach(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8) {
	if useKernels {
		reachAVX2(boxes, nb, active, n, cx, cy, cz, rsq, open)
	} else {
		reachGo(boxes, nb, active, n, cx, cy, cz, rsq, open)
	}
}

// p2pAVX2 is p2pGo eight targets at a time.
//
//go:noescape
func p2pAVX2(t *float64, stride, n int, src *[4]float32, ids *int64, ns int, ox, oy, oz float64, eps2 float32, grav float64)

// m2pAVX2 is m2pGo eight targets at a time.
//
//go:noescape
func m2pAVX2(t *float64, stride, n int, cx, cy, cz float64, gm, eps2 float32)

// reachAVX2 is reachGo four buckets at a time.
//
//go:noescape
func reachAVX2(boxes *float64, nb int, active *int32, n int, cx, cy, cz, rsq float64, open *uint8)
