//go:build !amd64

package cpu

// AVX2 is false: the assembly kernels are amd64 only.
const AVX2 = false
