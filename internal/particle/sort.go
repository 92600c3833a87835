package particle

import (
	"cmp"
	"runtime"
	"slices"
)

// The particle sort. Every build puts its particles in ascending
// (Key, ID) order, and between timesteps almost all of them already are:
// a particle array that was sorted last step and had 1% of its particles
// moved is one long ascending run with a few strays in it. The sort
// therefore works in two phases that touch only what they must.
//
// Scan walks the array once and splits it into the in-order particles —
// kept where they are, as runs of consecutive indices whose keys ascend
// across runs — and the displaced ones, collected as compact (key, index)
// references. When ps[i] sorts below the last in-order particle, BOTH are
// displaced: dropping only ps[i] would let one early particle with a huge
// key displace everything after it, while dropping both bounds the
// displaced set at twice the fewest particles whose removal leaves the
// array ordered (each dropped pair is a descent, every descent must lose a
// member, and the pairs are disjoint).
//
// SortInto then radix-sorts the references (Cornerstone-style: Keller et
// al. 2023 sort keys, never particles, and permute once) and merges them
// with the untouched runs into a destination array in one pass, copying
// each stretch of a run between two displaced particles as a block. When
// nothing was displaced there is nothing to do and neither array is
// written.
//
// The order is total — ascending Key, ties by ascending ID — so every
// caller, at any worker count, gets the same array.

// span is a half-open run [lo, hi) of array indices.
type span struct{ lo, hi int32 }

// Sorter carries one sort from Scan to SortInto; the zero value is ready.
// It holds what the displaced particles need (32 bytes each) and nothing
// the size of the array. Reset makes it ready for another sort with its
// buffers kept, so a caller whose every sort displaces about as many
// particles as the last allocates nothing.
type Sorter struct {
	runs    []span   // in-order particles: runs of consecutive indices, ascending across runs
	refs    []keyIdx // displaced particles: in scan order, then sorted by SortInto
	scratch []keyIdx // the radix passes' second buffer
	n       int      // particles scanned so far
}

// Reset begins a new sort. The buffers of the last one are kept unless it
// used less than a quarter of them: then they date from a far more
// disordered array (a first build, a shuffled refresh) and holding on to
// them would pin memory the steady state never needs.
func (s *Sorter) Reset() {
	if 4*len(s.refs) < cap(s.refs) {
		*s = Sorter{}
		return
	}
	s.runs, s.refs, s.n = s.runs[:0], s.refs[:0], 0
}

// Scan extends the order scan over ps[:upto]; it continues where the
// previous call stopped, so a caller that assigns keys block by block can
// scan each block while it is still in cache. Keys of scanned particles
// must not change until SortInto returns.
//
//paratreet:hotpath
func (s *Sorter) Scan(ps []Particle, upto int) {
	for i := s.n; i < upto; i++ {
		if k := len(s.runs) - 1; k >= 0 {
			run := &s.runs[k]
			top := int(run.hi) - 1
			if before(&ps[i], &ps[top]) {
				if len(s.refs)+2 > cap(s.refs) {
					// Double: append's 1.25x steps would copy a shuffled
					// array's references four times over.
					s.refs = slices.Grow(s.refs, len(s.refs)+2)
				}
				s.refs = append(s.refs,
					keyIdx{key: ps[top].Key, idx: int32(top)},
					keyIdx{key: ps[i].Key, idx: int32(i)})
				if run.hi--; run.hi == run.lo {
					s.runs = s.runs[:k]
				}
				continue
			}
			if top+1 == i {
				run.hi++
				continue
			}
		}
		s.runs = append(s.runs, span{lo: int32(i), hi: int32(i + 1)})
	}
	s.n = upto
}

// before is the sort's total order: ascending Key, ties by ascending ID.
func before(a, b *Particle) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.ID < b.ID)
}

// SortInto finishes the sort of the scanned array ps and returns how many
// particles were out of place. When that is zero ps is already in order
// and neither array is written; otherwise dst[:len(ps)] receives the
// particles in order and ps is left as it was. dst must not overlap ps.
// Up to workers goroutines share the radix passes when the displaced set
// is large.
func (s *Sorter) SortInto(dst, ps []Particle, workers int) int {
	if len(s.refs) == 0 {
		return 0
	}
	s.sortRefs(ps, workers)
	s.merge(dst, ps)
	return len(s.refs)
}

// sortRefs puts the displaced references in (Key, ID) order: LSD radix
// passes over the keys, then a fix-up of the equal-key runs by ID. Equal
// keys mean particles in the same 63-bit lattice cell, so the runs are
// rare and short unless the input is degenerate.
//
//paratreet:coldpath
func (s *Sorter) sortRefs(ps []Particle, workers int) {
	n := len(s.refs)
	s.scratch = slices.Grow(s.scratch[:0], n)[:n]
	workers = min(workers, n/radixSerialCutoff, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		radixPassesSerial(s.refs, s.scratch)
	} else {
		radixPassesParallel(s.refs, s.scratch, workers)
	}
	refs := s.refs
	for i := 1; i < n; i++ {
		if refs[i].key != refs[i-1].key {
			continue
		}
		j := i + 1
		for j < n && refs[j].key == refs[i].key {
			j++
		}
		slices.SortFunc(refs[i-1:j], func(a, b keyIdx) int { return cmp.Compare(ps[a.idx].ID, ps[b.idx].ID) })
		i = j
	}
}

// merge writes the in-order runs and the sorted references to dst in
// (Key, ID) order.
//
//paratreet:hotpath
func (s *Sorter) merge(dst, ps []Particle) {
	refs := s.refs
	r, k := 0, 0
	for _, run := range s.runs {
		i, hi := int(run.lo), int(run.hi)
		for r < len(refs) {
			// The stretch of the run that sorts before the next displaced
			// particle goes over as one block.
			d := &ps[refs[r].idx]
			j := i
			for j < hi && !before(d, &ps[j]) {
				j++
			}
			k += copy(dst[k:], ps[i:j])
			if i = j; i == hi {
				break
			}
			dst[k] = *d
			k++
			r++
		}
		k += copy(dst[k:], ps[i:hi])
	}
	for ; r < len(refs); r++ {
		dst[k] = ps[refs[r].idx]
		k++
	}
}

// SortInPlace finishes the sort of the scanned array ps within ps itself:
// an array already in order is left untouched, otherwise a temporary
// array of len(ps) takes the merge and is copied back.
func (s *Sorter) SortInPlace(ps []Particle, workers int) {
	if len(s.refs) == 0 {
		return
	}
	out := make([]Particle, len(ps))
	s.SortInto(out, ps, workers)
	copy(ps, out)
}

// RadixSortByKey sorts ps in place, ascending by (Key, ID), for callers
// that assigned the keys themselves and keep no Sorter between sorts.
func RadixSortByKey(ps []Particle, workers int) {
	var s Sorter
	s.Scan(ps, len(ps))
	s.SortInPlace(ps, workers)
}
