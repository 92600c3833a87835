package particle

import "sync"

// LSD radix passes over compact (key, index) references: the part of the
// particle sort (sort.go) that orders the displaced particles. A Particle
// is ~9x larger than a reference, so sorting references and permuting once
// keeps the memory traffic per pass small. Each pass parallelizes with the
// classic histogram / prefix-sum / scatter decomposition: every worker
// histograms its chunk, a serial scan turns the per-worker histograms
// into disjoint output cursors, and workers scatter their chunks without
// further coordination. Byte passes are stable, so the references come
// out in ascending key order with equal keys in their input order.

// keyIdx pairs a particle's sort key with its index in the array.
type keyIdx struct {
	key uint64
	idx int32
}

// radixSerialCutoff is the size below which the parallel machinery costs
// more than it saves; such inputs take the serial byte-pass path.
const radixSerialCutoff = 1 << 12

// usedBytes reports which of the 8 key bytes actually vary across the
// input; constant bytes need no pass. SFC keys occupy 63 bits, and most
// datasets leave the high bytes constant after the leading levels.
//
//paratreet:hotpath
func usedBytes(pairs []keyIdx) [8]bool {
	var lo, hi uint64
	lo = ^uint64(0)
	for i := range pairs {
		k := pairs[i].key
		lo &= k
		hi |= k
	}
	diff := lo ^ hi
	var used [8]bool
	for b := 0; b < 8; b++ {
		used[b] = diff>>(8*uint(b))&0xff != 0
	}
	return used
}

// radixPassesSerial runs the needed byte passes on one goroutine.
//
//paratreet:hotpath
func radixPassesSerial(pairs, scratch []keyIdx) {
	used := usedBytes(pairs)
	src, dst := pairs, scratch
	for b := 0; b < 8; b++ {
		if !used[b] {
			continue
		}
		shift := 8 * uint(b)
		var counts [256]int
		for i := range src {
			counts[src[i].key>>shift&0xff]++
		}
		sum := 0
		for v := 0; v < 256; v++ {
			c := counts[v]
			counts[v] = sum
			sum += c
		}
		for i := range src {
			v := src[i].key >> shift & 0xff
			dst[counts[v]] = src[i]
			counts[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// radixPassesParallel runs the needed byte passes with workers goroutines
// per pass: parallel histogram, serial 256*workers prefix scan, parallel
// scatter into disjoint output regions.
//
//paratreet:coldpath
func radixPassesParallel(pairs, scratch []keyIdx, workers int) {
	n := len(pairs)
	used := usedBytes(pairs)
	counts := make([][256]int, workers)
	chunk := (n + workers - 1) / workers
	src, dst := pairs, scratch
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		if !used[b] {
			continue
		}
		shift := 8 * uint(b)
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				c := &counts[w]
				*c = [256]int{}
				for i := lo; i < hi; i++ {
					c[src[i].key>>shift&0xff]++
				}
			}(w, lo, hi)
		}
		wg.Wait()
		// Column-major scan: all workers' counts for value v precede any
		// worker's count for v+1, giving each (value, worker) cell a
		// disjoint output cursor.
		sum := 0
		for v := 0; v < 256; v++ {
			for w := 0; w < workers; w++ {
				c := counts[w][v]
				counts[w][v] = sum
				sum += c
			}
		}
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				c := &counts[w]
				for i := lo; i < hi; i++ {
					v := src[i].key >> shift & 0xff
					dst[c[v]] = src[i]
					c[v]++
				}
			}(w, lo, hi)
		}
		wg.Wait()
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}
