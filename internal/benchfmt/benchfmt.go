// Package benchfmt defines the BENCH_*.json perf-snapshot schema — the
// repository's recorded perf trajectory — and the comparator the CI
// bench-gate runs against the committed baseline. A snapshot records,
// per benchmark, wall time, allocations, and the build/traverse phase
// split taken from the metrics layer, plus enough provenance (git SHA,
// workload, environment) to interpret a regression.
//
// The file format is JSON with struct-declaration field order
// (encoding/json preserves it) and sorted results, so emission is
// byte-stable for a given input — locked by a golden test the same way
// the Chrome-trace exporter's output is. The comparator reads with the
// ordinary JSON decoder, so hand-edited or older files stay readable.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SchemaVersion identifies the snapshot layout; bump when fields change
// meaning (added fields that readers may ignore do not require a bump).
const SchemaVersion = 1

// Result is one benchmark's measurement.
type Result struct {
	// Name is the benchmark identity, e.g. "treebuild/oct/w=4".
	Name string `json:"name"`
	// N is the iteration count the measurement averaged over.
	N int `json:"n"`
	// NsPerOp is wall nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// BuildNsPerOp is the per-op time inside build phases (tree build,
	// top share, leaf share), from the runtime's phase timers; zero for
	// benchmarks without a simulation phase split.
	BuildNsPerOp float64 `json:"build_ns_per_op,omitempty"`
	// TraverseNsPerOp is the per-op time inside traversal phases (local
	// traversal, resume); zero when not applicable.
	TraverseNsPerOp float64 `json:"traverse_ns_per_op,omitempty"`
	// P50Ns and P99Ns are per-request latency quantiles from the metrics
	// layer's streaming sketch; zero for benchmarks without a
	// request-latency distribution (only the serving path has one).
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// Snapshot is one recorded perf trajectory point (a BENCH_*.json file).
type Snapshot struct {
	Schema int `json:"schema"`
	// GitSHA is the commit the snapshot was taken at ("unknown" outside
	// a git checkout).
	GitSHA string `json:"git_sha"`
	// Workload names the benchmark set and scale, e.g. "bench-gate-quick".
	Workload string `json:"workload"`
	// GoOS/GoArch/NumCPU record the environment, since ns/op baselines
	// only transfer between like machines.
	GoOS    string   `json:"goos"`
	GoArch  string   `json:"goarch"`
	NumCPU  int      `json:"num_cpu"`
	Results []Result `json:"results"`
}

// Write emits the snapshot as byte-stable indented JSON: fields in
// declaration order, results sorted by name, trailing newline.
func Write(w io.Writer, s *Snapshot) error {
	cp := *s
	cp.Schema = SchemaVersion
	cp.Results = append([]Result(nil), s.Results...)
	sort.Slice(cp.Results, func(i, j int) bool { return cp.Results[i].Name < cp.Results[j].Name })
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Read decodes a snapshot.
func Read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if s.Schema > SchemaVersion {
		return nil, fmt.Errorf("benchfmt: snapshot schema %d newer than supported %d", s.Schema, SchemaVersion)
	}
	return &s, nil
}

// Regression is one comparator finding.
type Regression struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Base   float64
	Cur    float64
	// Ratio is Cur/Base (Inf when Base is zero and Cur is not).
	Ratio float64
	// Advisory marks a finding the gate reports but does not fail on: an
	// ns/op difference between snapshots taken on different CPU counts.
	Advisory bool
}

// String formats the finding for the CI log.
func (r Regression) String() string {
	s := fmt.Sprintf("%s: %s regressed %.4g -> %.4g (%.2fx)", r.Name, r.Metric, r.Base, r.Cur, r.Ratio)
	if r.Advisory {
		s += " [not gated: snapshots from unlike machines]"
	}
	return s
}

// Compare reports the current snapshot's regressions against a baseline:
// any shared benchmark whose ns/op grew by more than tolerance
// (fractional, e.g. 0.15 for +15%), any whose allocs/op grew at all
// beyond tolerance, and any benchmark that disappeared from the current
// set. New benchmarks absent from the baseline are not findings — they
// have no trajectory yet. Improvements never fail the gate. Times only
// transfer between like machines: when the snapshots' NumCPU differ, ns/op
// findings are still listed but marked Advisory; allocation counts do not
// depend on the machine and gate regardless.
func Compare(base, cur *Snapshot, tolerance float64) []Regression {
	curByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	var regs []Regression
	for _, b := range base.Results {
		c, ok := curByName[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name, Metric: "missing", Base: b.NsPerOp, Cur: 0, Ratio: 0})
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tolerance) {
			regs = append(regs, Regression{
				Name: b.Name, Metric: "ns/op",
				Base: b.NsPerOp, Cur: c.NsPerOp, Ratio: c.NsPerOp / b.NsPerOp,
				Advisory: base.NumCPU != cur.NumCPU,
			})
		}
		// Allocation counts are near-deterministic, so the same relative
		// tolerance is generous; a zero baseline regresses on any alloc.
		ba, ca := float64(b.AllocsPerOp), float64(c.AllocsPerOp)
		if ca > ba*(1+tolerance) && ca > ba {
			ratio := ca / ba
			if ba == 0 {
				ratio = float64(int64(ca)) // display aid: 0 -> n reads as n-fold
			}
			regs = append(regs, Regression{
				Name: b.Name, Metric: "allocs/op",
				Base: ba, Cur: ca, Ratio: ratio,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}
