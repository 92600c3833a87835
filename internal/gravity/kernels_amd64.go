package gravity

// useKernels selects the assembly over the Go bodies for every kernel
// call. It is set once, from CPUID: AVX2, with the operating system
// saving the YMM registers.
var useKernels = haveAVX2()

func haveAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
