// Package cpu probes, once per process, the vector instructions the
// packed kernels can use. Every package with assembly kernels (gravity,
// knn) reads the same probe, so a host runs the AVX2 bodies everywhere or
// nowhere.
package cpu
