package particle

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"paratreet/internal/vec"
)

func TestBoundingBox(t *testing.T) {
	ps := []Particle{
		{Pos: vec.V(1, 2, 3)},
		{Pos: vec.V(-1, 5, 0)},
		{Pos: vec.V(0, 0, 7)},
	}
	b := BoundingBox(ps)
	want := vec.NewBox(vec.V(-1, 0, 0), vec.V(1, 5, 7))
	if b != want {
		t.Errorf("BoundingBox = %v, want %v", b, want)
	}
	if !BoundingBox(nil).IsEmpty() {
		t.Error("BoundingBox of empty set should be empty")
	}
}

func TestMassAndCenter(t *testing.T) {
	ps := []Particle{
		{Mass: 1, Pos: vec.V(0, 0, 0)},
		{Mass: 3, Pos: vec.V(4, 0, 0)},
	}
	if m := TotalMass(ps); m != 4 {
		t.Errorf("TotalMass = %v", m)
	}
	if c := CenterOfMass(ps); c != (vec.V(3, 0, 0)) {
		t.Errorf("CenterOfMass = %v, want (3,0,0)", c)
	}
	if c := CenterOfMass(nil); c != (vec.Vec3{}) {
		t.Errorf("CenterOfMass(nil) = %v", c)
	}
}

func TestSortByKey(t *testing.T) {
	ps := []Particle{
		{ID: 0, Key: 5},
		{ID: 1, Key: 1},
		{ID: 2, Key: 5},
		{ID: 3, Key: 0},
	}
	RadixSortByKey(ps, 1)
	if !KeysSorted(ps) {
		t.Fatal("not sorted")
	}
	// Stable tie-break by ID.
	if ps[2].ID != 0 || ps[3].ID != 2 {
		t.Errorf("tie-break order wrong: %+v", ps)
	}
}

func TestResetAccAndClone(t *testing.T) {
	ps := []Particle{{Acc: vec.V(1, 1, 1), Potential: 5}}
	cp := Clone(ps)
	ResetAcc(ps)
	if ps[0].Acc != (vec.Vec3{}) || ps[0].Potential != 0 {
		t.Error("ResetAcc did not zero")
	}
	if cp[0].Acc != (vec.V(1, 1, 1)) {
		t.Error("Clone shares storage with original")
	}
}

func TestNewUniform(t *testing.T) {
	box := vec.NewBox(vec.V(-1, -1, -1), vec.V(1, 1, 1))
	ps := NewUniform(1000, 1, box)
	if len(ps) != 1000 {
		t.Fatalf("got %d particles", len(ps))
	}
	for i := range ps {
		if !box.Contains(ps[i].Pos) {
			t.Fatalf("particle %d outside box: %v", i, ps[i].Pos)
		}
	}
	if m := TotalMass(ps); math.Abs(m-1) > 1e-9 {
		t.Errorf("total mass = %v, want 1", m)
	}
	// Determinism.
	ps2 := NewUniform(1000, 1, box)
	if ps[37].Pos != ps2[37].Pos {
		t.Error("generator not deterministic for fixed seed")
	}
	// Distinct seeds give distinct sets.
	ps3 := NewUniform(1000, 2, box)
	if ps[0].Pos == ps3[0].Pos {
		t.Error("different seeds produced identical first particle")
	}
}

func TestNewPlummerIsClustered(t *testing.T) {
	center := vec.V(5, 5, 5)
	ps := NewPlummer(2000, 3, center, 0.5)
	if len(ps) != 2000 {
		t.Fatalf("got %d", len(ps))
	}
	// More than half the mass should be within ~2 scale radii of center
	// (Plummer has ~65% within 1.3a).
	inner := 0
	for i := range ps {
		if ps[i].Pos.Dist(center) < 1.0 {
			inner++
		}
	}
	if inner < len(ps)/2 {
		t.Errorf("only %d/%d particles within 2 scale radii; not clustered", inner, len(ps))
	}
	com := CenterOfMass(ps)
	if com.Dist(center) > 0.5 {
		t.Errorf("center of mass %v too far from %v", com, center)
	}
}

func TestNewClustered(t *testing.T) {
	box := vec.UnitBox()
	ps := NewClustered(999, 4, box, 4)
	if len(ps) != 999 {
		t.Fatalf("got %d", len(ps))
	}
	ids := map[int64]bool{}
	for i := range ps {
		if ids[ps[i].ID] {
			t.Fatalf("duplicate ID %d", ps[i].ID)
		}
		ids[ps[i].ID] = true
	}
}

func TestNewCosmological(t *testing.T) {
	box := vec.UnitBox()
	ps := NewCosmological(5000, 5, box)
	if len(ps) != 5000 {
		t.Fatalf("got %d", len(ps))
	}
	for i := range ps {
		if !box.Contains(ps[i].Pos) {
			t.Fatalf("particle outside box: %v", ps[i].Pos)
		}
	}
}

func TestGenerateByName(t *testing.T) {
	box := vec.UnitBox()
	for name, want := range map[string][]Particle{
		"uniform":   NewUniform(300, 3, box),
		"Plummer":   NewPlummer(300, 3, vec.V(0.5, 0.5, 0.5), 0.1),
		"clustered": NewClustered(300, 3, box, 8),
		"COSMO":     NewCosmological(300, 3, box),
	} {
		got, err := Generate(name, 300, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d particles, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: particle %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	_, err := Generate("bogus", 10, 1)
	if err == nil || !strings.Contains(err.Error(), "uniform|plummer|clustered|cosmo") {
		t.Fatalf("unknown distribution: err %v, want one listing the choices", err)
	}
}

func TestNewDisk(t *testing.T) {
	dp := DefaultDiskParams()
	ps := NewDisk(1000, 6, dp)
	if len(ps) != 1002 {
		t.Fatalf("got %d, want 1002 (star+planet+1000)", len(ps))
	}
	if ps[0].Mass != dp.StarMass {
		t.Error("first particle should be the star")
	}
	if ps[1].Mass != dp.PlanetMass {
		t.Error("second particle should be the planet")
	}
	// Planet speed should be circular Keplerian.
	wantV := math.Sqrt(dp.StarMass / dp.PlanetA)
	if math.Abs(ps[1].Vel.Norm()-wantV) > 1e-12 {
		t.Errorf("planet speed %v, want %v", ps[1].Vel.Norm(), wantV)
	}
	for i := 2; i < len(ps); i++ {
		r := math.Hypot(ps[i].Pos.X, ps[i].Pos.Y)
		if r < dp.RMin-1e-9 || r > dp.RMax+1e-9 {
			t.Fatalf("planetesimal %d at cylindrical radius %v outside [%v,%v]", i, r, dp.RMin, dp.RMax)
		}
		if ps[i].Radius != dp.BodyRadius {
			t.Fatalf("planetesimal radius %v", ps[i].Radius)
		}
		// Nearly Keplerian tangential speed.
		v := ps[i].Vel.Norm()
		vk := math.Sqrt(dp.StarMass / r)
		if v < 0.5*vk || v > 1.5*vk {
			t.Fatalf("planetesimal %d speed %v too far from Keplerian %v", i, v, vk)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	ps := NewUniform(100, 7, vec.UnitBox())
	ps[3].Density = 42
	ps[3].SmoothLen = 0.1
	ps[3].Pressure = 7
	ps[3].Radius = 0.25
	var buf bytes.Buffer
	if err := Write(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("round trip length %d != %d", len(got), len(ps))
	}
	for i := range ps {
		if got[i].ID != ps[i].ID || got[i].Pos != ps[i].Pos || got[i].Vel != ps[i].Vel ||
			got[i].Mass != ps[i].Mass || got[i].Radius != ps[i].Radius ||
			got[i].Density != ps[i].Density || got[i].SmoothLen != ps[i].SmoothLen ||
			got[i].Pressure != ps[i].Pressure {
			t.Fatalf("particle %d mismatch: %+v vs %+v", i, got[i], ps[i])
		}
	}
}

func TestIOFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ps.bin")
	ps := NewUniform(10, 8, vec.UnitBox())
	if err := WriteFile(path, ps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len %d", len(got))
	}
}

func TestIOBadInput(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short input should error")
	}
	bad := make([]byte, 12)
	if _, err := Read(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Error("bad version should error")
	}
	// Truncated record.
	buf.Reset()
	if err := Write(&buf, NewUniform(2, 1, vec.UnitBox())); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated record should error")
	}
	// A bare header claiming 2^32-1 particles: an error about the first
	// record, not an allocation of the claimed count.
	hostile := binary.LittleEndian.AppendUint32(nil, fileMagic)
	hostile = binary.LittleEndian.AppendUint32(hostile, fileVersion)
	hostile = binary.LittleEndian.AppendUint32(hostile, math.MaxUint32)
	if _, err := Read(bytes.NewReader(hostile)); err == nil || !strings.Contains(err.Error(), "reading record 0") {
		t.Errorf("hostile header: got %v, want a reading record 0 error", err)
	}
}

// TestSorterBuffers pins Reset's buffer policy: sorts that displace about
// as many particles as the last reuse its buffers and allocate nothing; a
// sort that used under a quarter of them lets them go at the next Reset.
func TestSorterBuffers(t *testing.T) {
	const n = 4000
	shuffled := make([]Particle, n)
	for i := range shuffled {
		shuffled[i] = Particle{ID: int64(i), Key: uint64((i * 7919) % n)}
	}
	stray := make([]Particle, n)
	for i := range stray {
		stray[i] = Particle{ID: int64(i), Key: uint64(i)}
	}
	stray[n/2].Key = 0
	dst := make([]Particle, n)
	sortWith := func(s *Sorter, ps []Particle) int {
		s.Reset()
		s.Scan(ps, len(ps))
		return s.SortInto(dst, ps, 1)
	}

	var s Sorter
	if moved := sortWith(&s, shuffled); moved < n/2 {
		t.Fatalf("shuffled array: %d moved", moved)
	}
	big := cap(s.refs)
	if moved := sortWith(&s, stray); moved != 2 || cap(s.refs) != big {
		t.Fatalf("sort after a full one: %d moved, cap %d -> %d; the buffers should have been kept", moved, big, cap(s.refs))
	}
	if sortWith(&s, stray); cap(s.refs) >= big {
		t.Fatalf("second small sort still holds %d references' worth of buffer", cap(s.refs))
	}
	if allocs := testing.AllocsPerRun(10, func() { sortWith(&s, stray) }); allocs != 0 {
		t.Errorf("steady-state sort allocates %v times", allocs)
	}
}
