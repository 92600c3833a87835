package knn

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/traverse"
	"paratreet/internal/vec"
)

// swapHeap is the textbook bounded max-heap that swaps an entry with its
// parent or larger child at every level, ordered by (DistSq, ID): the
// reference the hole-moving heap must match entry for entry.
type swapHeap struct {
	k     int
	items []Neighbor
}

// after reports whether a follows b in (DistSq, ID) order.
func after(a, b Neighbor) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq > b.DistSq
	}
	return a.ID > b.ID
}

func (h *swapHeap) push(n Neighbor) {
	if len(h.items) >= h.k {
		if !after(h.items[0], n) {
			return
		}
		h.items[0] = n
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h.items) && after(h.items[l], h.items[big]) {
				big = l
			}
			if r < len(h.items) && after(h.items[r], h.items[big]) {
				big = r
			}
			if big == i {
				return
			}
			h.items[i], h.items[big] = h.items[big], h.items[i]
			i = big
		}
	}
	h.items = append(h.items, n)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !after(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// FuzzHeap pushes arbitrary distance sequences — few distinct values, so
// ties are the rule — into a heap of k in 1..40. After every push its
// entries must sit in the swap-based reference's order, in storage that
// never grows past k; at the end they must be the k smallest distances
// offered.
func FuzzHeap(f *testing.F) {
	f.Add(uint8(0), []byte{3, 3, 3, 1, 2})
	f.Add(uint8(3), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2})
	f.Add(uint8(7), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(39), []byte{0, 63, 0, 63, 1, 62, 1, 62})
	f.Fuzz(func(t *testing.T, kb uint8, ds []byte) {
		k := 1 + int(kb)%40
		h := heap{k: k, items: make([]Neighbor, 0, k)}
		ref := swapHeap{k: k}
		offered := make([]float64, 0, len(ds))
		for i, b := range ds {
			n := Neighbor{DistSq: float64(b % 64), ID: int64(i)}
			h.push(n)
			ref.push(n)
			offered = append(offered, n.DistSq)
			if !slices.Equal(h.items, ref.items) {
				t.Fatalf("k %d after push %d: heap %v, swap reference %v", k, i, h.items, ref.items)
			}
			if cap(h.items) != k {
				t.Fatalf("k %d after push %d: capacity %d", k, i, cap(h.items))
			}
		}
		sort.Float64s(offered)
		want := offered[:min(k, len(offered))]
		got := make([]float64, len(h.items))
		for i := range h.items {
			got[i] = h.items[i].DistSq
		}
		sort.Float64s(got)
		if !slices.Equal(got, want) {
			t.Fatalf("k %d: heap holds %v, the %d smallest are %v", k, got, k, want)
		}
	})
}

// TestAttachRejectsNonPositiveK: a search for fewer than one neighbour has
// no bound to prune by, so Attach refuses it up front, naming k, instead of
// letting the first Open index an empty heap.
func TestAttachRejectsNonPositiveK(t *testing.T) {
	box := vec.UnitBox()
	for _, k := range []int{0, -1} {
		b := &traverse.Bucket{Box: box, Particles: particle.NewUniform(4, 1, box)}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "k = ") {
					t.Errorf("Attach with k = %d: panic %q, want one naming k", k, msg)
				}
			}()
			Attach([]*traverse.Bucket{b}, k)
		}()
		if b.State != nil {
			t.Errorf("Attach with k = %d attached state", k)
		}
	}
}
