package knn

import (
	"paratreet/internal/cpu"
	"paratreet/internal/vec"
)

// The kernel calls: each runs its AVX2 body where the CPUID probe the
// gravity kernels share found AVX2.
//
//paratreet:hotpath
func filter(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64 {
	if cpu.AVX2 {
		return filterAVX2(c, stride, n, sx, sy, sz, sid, self, d2)
	}
	return filterGo(c, stride, n, sx, sy, sz, sid, self, d2)
}

//paratreet:hotpath
func open(c *float64, n int, box *vec.Box) bool {
	if cpu.AVX2 {
		return openAVX2(c, n, box)
	}
	return openGo(c, n, box)
}

// filterAVX2 is filterGo four targets at a time.
//
//go:noescape
func filterAVX2(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64

// openAVX2 is openGo four targets at a time.
//
//go:noescape
func openAVX2(c *float64, n int, box *vec.Box) bool
