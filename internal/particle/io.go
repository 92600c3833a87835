package particle

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// File format: a little-endian header (magic, version, count) followed by a
// fixed-width record per particle. The format is this project's native
// dataset format, standing in for the tipsy files ChaNGa-family codes read.
const (
	fileMagic   uint32 = 0x50545254 // "PTRT"
	fileVersion uint32 = 1
)

var (
	// ErrBadMagic is returned when a dataset file does not start with the
	// expected magic number.
	ErrBadMagic = errors.New("particle: bad magic number")
	// ErrBadVersion is returned for unsupported format versions.
	ErrBadVersion = errors.New("particle: unsupported format version")
)

const recordFloats = 11 // mass, pos(3), vel(3), radius, density, smoothlen, pressure

// recordSize is the byte length of the record both the dataset file and
// the wire record (AppendBinary) start with: the ID, then the
// recordFloats floats.
const recordSize = 8 + recordFloats*8

// maxPrealloc bounds the records Read allocates before it has read them,
// so a header claiming more particles than the input holds cannot exhaust
// memory.
const maxPrealloc = 1 << 16

// putRecord writes p's ID and floats into b[:recordSize].
func putRecord(b []byte, p *Particle) {
	binary.LittleEndian.PutUint64(b, uint64(p.ID))
	for j, v := range [recordFloats]float64{
		p.Mass,
		p.Pos.X, p.Pos.Y, p.Pos.Z,
		p.Vel.X, p.Vel.Y, p.Vel.Z,
		p.Radius, p.Density, p.SmoothLen, p.Pressure,
	} {
		binary.LittleEndian.PutUint64(b[8+j*8:], math.Float64bits(v))
	}
}

// getRecord reads p's ID and floats from b[:recordSize].
func getRecord(b []byte, p *Particle) {
	p.ID = int64(binary.LittleEndian.Uint64(b))
	var vals [recordFloats]float64
	for j := range vals {
		vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8+j*8:]))
	}
	p.Mass = vals[0]
	p.Pos.X, p.Pos.Y, p.Pos.Z = vals[1], vals[2], vals[3]
	p.Vel.X, p.Vel.Y, p.Vel.Z = vals[4], vals[5], vals[6]
	p.Radius, p.Density, p.SmoothLen, p.Pressure = vals[7], vals[8], vals[9], vals[10]
}

// Write serializes the particle set to w in the native binary format.
func Write(w io.Writer, ps []Particle) error {
	bw := bufio.NewWriter(w)
	hdr := [3]uint32{fileMagic, fileVersion, uint32(len(ps))}
	if err := binary.Write(bw, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("particle: writing header: %w", err)
	}
	var buf [recordSize]byte
	for i := range ps {
		putRecord(buf[:], &ps[i])
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("particle: writing record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read deserializes a particle set written by Write. The slice grows as
// records arrive, so a file shorter than its header claims reports the
// first missing record.
func Read(r io.Reader) ([]Particle, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("particle: reading header: %w", err)
	}
	if hdr[0] != fileMagic {
		return nil, ErrBadMagic
	}
	if hdr[1] != fileVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[1])
	}
	n := int(hdr[2])
	ps := make([]Particle, 0, min(n, maxPrealloc))
	var buf [recordSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("particle: reading record %d: %w", i, err)
		}
		ps = append(ps, Particle{})
		getRecord(buf[:], &ps[i])
	}
	return ps, nil
}

// WriteFile writes the particle set to the named file.
func WriteFile(path string, ps []Particle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, ps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a particle set from the named file.
func ReadFile(path string) ([]Particle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
