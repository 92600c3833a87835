//go:build !amd64

package knn

import "paratreet/internal/vec"

// The assembly is amd64 only, so every kernel call runs its Go body.

func filter(c *float64, stride, n int, sx, sy, sz float64, sid int64, self uint64, d2 *[chunk]float64) uint64 {
	return filterGo(c, stride, n, sx, sy, sz, sid, self, d2)
}

func open(c *float64, n int, box *vec.Box) bool { return openGo(c, n, box) }
