package gravity

// DisableKernels turns the assembly off, so every kernel call runs its Go
// body, and returns what restores it.
func DisableKernels() (restore func()) {
	prev := useKernels
	useKernels = false
	return func() { useKernels = prev }
}
