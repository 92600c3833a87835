package gravity

import "paratreet/internal/particle"

// useKernels selects the packed vector kernels. It is set once, from
// CPUID: AVX2, with the operating system saving the YMM registers.
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

// p2p is Leaf over n packed targets, four at a time: t points at the
// first target's x in a slab whose columns are stride float64s apart, and
// src at ns source particles. The assembly reads Particle's ID, Mass and
// Pos at offsets 0, 8 and 16, and steps 144 bytes per particle
// (TestKernelParticleLayout pins them).
//
//go:noescape
func p2p(t *float64, stride, n int, src *particle.Particle, ns int, eps2, grav float64)

// m2p is applyNode's monopole over n packed targets, four at a time.
//
//go:noescape
func m2p(t *float64, stride, n int, cx, cy, cz, gm, eps2 float64)
