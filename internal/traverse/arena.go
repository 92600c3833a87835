package traverse

import "sync"

// i32Arena bump-allocates the []int32 active-bucket lists that frames
// carry down the tree. It belongs to the traversal's pumper, like the
// frame stack, so it needs no locking of its own; lists stay live until
// the frames referencing them retire, and the whole arena is released in
// one step when the traversal completes. Slabs are pooled globally, so
// steady-state iterations allocate nothing for frame lists.
type i32Arena struct {
	slabs []*[]int32
	off   int // offset into the last slab
}

// slabInts is the slab length; active lists are at most the partition's
// bucket count, far below this in practice.
const slabInts = 8192

var slabPool = sync.Pool{New: func() any {
	s := make([]int32, slabInts)
	return &s
}}

// alloc returns a zero-length slice with capacity n for append.
//
//paratreet:hotpath
func (a *i32Arena) alloc(n int) []int32 {
	if len(a.slabs) == 0 || a.off+n > len(*a.slabs[len(a.slabs)-1]) {
		a.grow(n)
	}
	s := *a.slabs[len(a.slabs)-1]
	out := s[a.off : a.off : a.off+n]
	a.off += n
	return out
}

// unalloc gives back the last n ints of the most recent alloc, which the
// caller no longer references.
//
//paratreet:hotpath
func (a *i32Arena) unalloc(n int) { a.off -= n }

// grow appends a pooled slab, or a dedicated one for oversized requests.
//
//paratreet:coldpath
func (a *i32Arena) grow(n int) {
	if n > slabInts {
		s := make([]int32, n)
		a.slabs = append(a.slabs, &s)
	} else {
		a.slabs = append(a.slabs, slabPool.Get().(*[]int32))
	}
	a.off = 0
}

// release returns regular slabs to the pool. Call only when no live
// frame can reference arena memory (traversal completion).
//
//paratreet:coldpath
func (a *i32Arena) release() {
	for i, s := range a.slabs {
		if len(*s) == slabInts {
			slabPool.Put(s)
		}
		a.slabs[i] = nil
	}
	a.slabs = a.slabs[:0]
	a.off = 0
}
