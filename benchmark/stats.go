package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocCounter reads the runtime's cumulative allocation counters without
// stopping the world, so it can bracket every timed step.
type allocCounter struct {
	samples [2]metrics.Sample
}

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:bytes"
	a.samples[1].Name = "/gc/heap/allocs:objects"
	return a
}

// read returns cumulative (bytes, objects) allocated by the process.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// gcState is the part of MemStats the per-layer runtime metrics diff.
type gcState struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// memMB reads the process's memory at the end of a run, with the program
// under test still alive. live is the heap still reachable after a forced
// collection: what the program's data structures retain. It depends on the
// data, not on when the collector last ran, so it repeats from run to run.
// sys is MemStats.Sys, every byte the runtime obtained from the OS; it
// follows the collector's pacing (runs of one binary on one seed differ by
// a fifth), so it is reported as a diagnostic only.
func memMB() (live, sys float64) {
	// Twice: a sync.Pool's contents survive one collection in its victim
	// cache, and how full the pools are is a matter of timing.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20), float64(m.Sys) / (1 << 20)
}
