package particle_test

import (
	"math/rand"
	"sort"
	"testing"

	"paratreet/internal/particle"
	"paratreet/internal/sfc"
	"paratreet/internal/vec"
)

// keyed returns ps with SFC keys assigned for the given curve over the
// cloud's bounding box (grown slightly so boundary particles quantize
// inside it, matching how AssignKeys is used by the build pipeline).
func keyed(ps []particle.Particle, curve sfc.Curve) []particle.Particle {
	box := vec.EmptyBox()
	for i := range ps {
		box = box.Grow(ps[i].Pos)
	}
	for i := range ps {
		ps[i].Key = sfc.Key(curve, ps[i].Pos, box)
	}
	return ps
}

// referenceSort is the comparator sort the particle sort is checked
// against: ascending key, ties broken by ascending ID.
func referenceSort(ps []particle.Particle) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Key != ps[j].Key {
			return ps[i].Key < ps[j].Key
		}
		return ps[i].ID < ps[j].ID
	})
}

// assertSortedMatch verifies got is orig in exactly the reference order.
func assertSortedMatch(t *testing.T, got, orig []particle.Particle) {
	t.Helper()
	want := particle.Clone(orig)
	referenceSort(want)
	if len(got) != len(want) {
		t.Fatalf("length changed: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got (key=%x id=%d) want (key=%x id=%d)",
				i, got[i].Key, got[i].ID, want[i].Key, want[i].ID)
		}
	}
}

func TestRadixSortMatchesSortByKey(t *testing.T) {
	box := vec.Box{Max: vec.Vec3{X: 1, Y: 1, Z: 1}}
	clouds := map[string][]particle.Particle{
		"uniform-small":  particle.NewUniform(257, 1, box),
		"uniform-large":  particle.NewUniform(20000, 2, box),
		"plummer":        particle.NewPlummer(12000, 3, vec.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, 0.1),
		"clustered":      particle.NewClustered(8000, 4, box, 5),
		"empty":          nil,
		"single":         particle.NewUniform(1, 5, box),
		"two":            particle.NewUniform(2, 6, box),
		"already-sorted": keyed(particle.NewUniform(5000, 7, box), sfc.Morton),
	}
	// Duplicate keys: co-locate particles so equal-key runs exist and the
	// ID tie-break path is exercised.
	dup := particle.NewUniform(4096, 8, box)
	for i := range dup {
		dup[i].Pos = dup[i%7].Pos
	}
	clouds["duplicate-keys"] = dup

	for name, cloud := range clouds {
		for _, curve := range []sfc.Curve{sfc.Morton, sfc.Hilbert} {
			for _, workers := range []int{1, 2, 4, 8} {
				ps := keyed(particle.Clone(cloud), curve)
				if name == "already-sorted" {
					referenceSort(ps)
				}
				orig := particle.Clone(ps)
				particle.RadixSortByKey(ps, workers)
				assertSortedMatch(t, ps, orig)
				if !particle.KeysSorted(ps) {
					t.Fatalf("%s/%v/w=%d: KeysSorted false after radix sort", name, curve, workers)
				}
			}
		}
	}
}

// TestRadixSortAdversarialKeys hits byte patterns the generator clouds
// rarely produce: all-equal, descending, and high-byte-only variation.
func TestRadixSortAdversarialKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mk := func(keys []uint64) []particle.Particle {
		ps := make([]particle.Particle, len(keys))
		for i, k := range keys {
			ps[i] = particle.Particle{ID: int64(len(keys) - i), Key: k}
		}
		return ps
	}
	cases := map[string][]uint64{
		"all-equal": make([]uint64, 1000),
		"descending": func() []uint64 {
			ks := make([]uint64, 1000)
			for i := range ks {
				ks[i] = uint64(1000 - i)
			}
			return ks
		}(),
		"high-bytes": func() []uint64 {
			ks := make([]uint64, 1000)
			for i := range ks {
				ks[i] = uint64(rng.Intn(4)) << 56
			}
			return ks
		}(),
		"random-63": func() []uint64 {
			ks := make([]uint64, 3000)
			for i := range ks {
				ks[i] = rng.Uint64() >> 1
			}
			return ks
		}(),
	}
	for name, keys := range cases {
		for _, workers := range []int{1, 4} {
			ps := mk(keys)
			orig := particle.Clone(ps)
			particle.RadixSortByKey(ps, workers)
			if len(ps) > 0 {
				assertSortedMatch(t, ps, orig)
			}
			_ = name
		}
	}
}

// checkSorter runs the two-phase sort over ps and checks everything its
// contract promises: the reference order, ps left as it was, and — when
// nothing was out of place — zero moved and not one write to dst. It
// returns the number of particles moved.
func checkSorter(t *testing.T, s *particle.Sorter, ps []particle.Particle, workers int) int {
	t.Helper()
	orig := particle.Clone(ps)
	dst := make([]particle.Particle, len(ps))
	for i := range dst {
		dst[i].ID = -1 // a value no input carries, to see writes
	}
	s.Reset()
	// Scan in two steps, as a caller keying block by block does.
	s.Scan(ps, len(ps)/3)
	s.Scan(ps, len(ps))
	moved := s.SortInto(dst, ps, workers)
	for i := range ps {
		if ps[i] != orig[i] {
			t.Fatalf("SortInto wrote to its source at %d", i)
		}
	}
	if moved == 0 {
		for i := range dst {
			if dst[i].ID != -1 {
				t.Fatalf("nothing moved, yet dst[%d] was written", i)
			}
		}
		assertSortedMatch(t, ps, orig)
		return 0
	}
	if moved < 2 || moved > len(ps) {
		t.Fatalf("moved %d of %d", moved, len(ps))
	}
	assertSortedMatch(t, dst, orig)
	return moved
}

// sortShapes are the input orders the sort must handle, each built from n
// distinct-ID particles: maxMoved bounds the displaced count where the
// shape pins it (-1: anything goes).
var sortShapes = []struct {
	name     string
	build    func(n int, rng *rand.Rand) []particle.Particle
	maxMoved func(n int) int
}{
	{"ordered", func(n int, rng *rand.Rand) []particle.Particle {
		return ordered(n, rng)
	}, func(int) int { return 0 }},
	{"reversed", func(n int, rng *rand.Rand) []particle.Particle {
		ps := ordered(n, rng)
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			ps[i], ps[j] = ps[j], ps[i]
		}
		return ps
	}, func(int) int { return -1 }},
	{"random", func(n int, rng *rand.Rand) []particle.Particle {
		ps := ordered(n, rng)
		rng.Shuffle(n, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return ps
	}, func(int) int { return -1 }},
	// Every key equal: ID order decides, and ascending IDs are in order.
	{"all-keys-equal", func(n int, rng *rand.Rand) []particle.Particle {
		ps := make([]particle.Particle, n)
		for i := range ps {
			ps[i] = particle.Particle{ID: int64(i), Key: 42}
		}
		return ps
	}, func(int) int { return 0 }},
	{"all-keys-equal-shuffled", func(n int, rng *rand.Rand) []particle.Particle {
		ps := make([]particle.Particle, n)
		for i, id := range rng.Perm(n) {
			ps[i] = particle.Particle{ID: int64(id), Key: 42}
		}
		return ps
	}, func(int) int { return -1 }},
	// 1% of the particles get a new key where they stand, as a timestep
	// leaves them: each stray costs at most itself and one neighbour.
	{"1%-displaced", func(n int, rng *rand.Rand) []particle.Particle {
		ps := ordered(n, rng)
		for m := 0; m < (n+99)/100; m++ {
			ps[rng.Intn(n)].Key = rng.Uint64() >> 1
		}
		return ps
	}, func(n int) int { return 2 * ((n + 99) / 100) }},
	// One early maximum key followed by an ordered tail pins the
	// both-removed rule: one-sided removal would keep the maximum and
	// displace the whole tail.
	{"early-maximum", func(n int, rng *rand.Rand) []particle.Particle {
		ps := ordered(n, rng)
		if n > 1 {
			ps[n/10].Key = 1<<63 - 1
		}
		return ps
	}, func(int) int { return 2 }},
}

// ordered returns n particles in ascending (Key, ID) order with random
// keys, some of them repeated, and IDs that do not follow the index.
func ordered(n int, rng *rand.Rand) []particle.Particle {
	ps := make([]particle.Particle, n)
	for i, id := range rng.Perm(n) {
		ps[i] = particle.Particle{ID: int64(id), Key: rng.Uint64() >> 1, Mass: float64(i)}
		if i > 0 && rng.Intn(8) == 0 {
			ps[i].Key = ps[i-1].Key
		}
	}
	referenceSort(ps)
	return ps
}

// TestSorterProperties checks the sort against the reference comparator
// sort over every input shape, at sizes from empty to past the parallel
// cutoff, serial and with workers, through one Sorter reset between sorts
// as the incremental build's is.
func TestSorterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s particle.Sorter
	for _, shape := range sortShapes {
		for _, n := range []int{0, 1, 2, 3, 17, 1000, 20000} {
			for _, workers := range []int{1, 4} {
				ps := shape.build(n, rng)
				moved := checkSorter(t, &s, ps, workers)
				if limit := shape.maxMoved(n); limit >= 0 && moved > limit {
					t.Errorf("%s/n=%d/w=%d: moved %d particles, at most %d are out of place",
						shape.name, n, workers, moved, limit)
				}
				// The in-place forms agree.
				inPlace := particle.Clone(ps)
				particle.RadixSortByKey(inPlace, workers)
				assertSortedMatch(t, inPlace, ps)
			}
		}
	}
}

// FuzzRadixSort checks the sort against the reference for arbitrary key
// bytes and worker counts: the fuzz bytes as they come, and the same
// particles arranged into every shape of sortShapes that is an order
// (ordered, reversed, one early maximum).
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255}, uint8(4))
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{9, 9, 1, 0, 2, 0, 3, 0, 4, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		ps := make([]particle.Particle, 0, len(data)/2+1)
		for i := 0; i+1 < len(data); i += 2 {
			// Spread the two fuzz bytes across low and high key bytes so
			// multiple radix passes see variation.
			k := uint64(data[i]) | uint64(data[i+1])<<33
			ps = append(ps, particle.Particle{ID: int64(i), Key: k})
		}
		w := int(workers % 9)
		var s particle.Sorter
		checkSorter(t, &s, ps, w)

		sorted := particle.Clone(ps)
		referenceSort(sorted)
		if moved := checkSorter(t, &s, sorted, w); moved != 0 {
			t.Fatalf("ordered input: %d moved", moved)
		}
		reversed := particle.Clone(sorted)
		for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
			reversed[i], reversed[j] = reversed[j], reversed[i]
		}
		checkSorter(t, &s, reversed, w)
		if len(sorted) > 1 {
			sorted[0].Key = 1<<63 - 1
			if moved := checkSorter(t, &s, sorted, w); moved > 2 {
				t.Fatalf("one early maximum: %d moved, want at most 2", moved)
			}
		}

		inPlace := particle.Clone(ps)
		particle.RadixSortByKey(inPlace, w)
		assertSortedMatch(t, inPlace, ps)
	})
}
