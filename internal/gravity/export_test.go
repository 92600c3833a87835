package gravity

// DisableKernels turns the packed vector kernels off, so Pack does nothing
// and VisitSource runs the per-pair loop, and returns what restores them.
func DisableKernels() (restore func()) {
	prev := useKernels
	useKernels = false
	return func() { useKernels = prev }
}
