package paratreet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"paratreet/internal/metrics"
)

// Config specifies a simulation's machine, decomposition, tree, cache, and
// load-balancing parameters — the configuration object of §II-D2.
type Config struct {
	// Procs is the number of simulated processes. Default 1.
	Procs int
	// WorkersPerProc is the number of worker threads per process.
	// Default 1.
	WorkersPerProc int
	// BuildWorkers is the goroutine budget each subtree build task may use
	// for the Cornerstone-style parallel tree build (parallel key
	// assignment and radix sort, prefix-search node construction,
	// concurrent Data accumulation). 0 or 1 keeps the serial build. The
	// resulting tree is identical to the serial build's.
	BuildWorkers int

	// Tree selects the tree type (TreeOct, TreeKD, TreeLongestDim).
	Tree TreeType
	// Decomp selects the partition decomposition (DecompSFC, ...).
	Decomp DecompType
	// BucketSize is the maximum particles per leaf. Default 16.
	BucketSize int
	// Partitions is the number of Partitions (load units); the paper
	// over-decomposes, so the default is 8 per process.
	Partitions int
	// Subtrees is the number of Subtrees (memory units); default 4 per
	// process.
	Subtrees int

	// CachePolicy selects the software-cache insertion model.
	CachePolicy CachePolicy
	// FetchDepth is the number of descendant levels shipped per remote
	// request. Default 3.
	FetchDepth int
	// ShareDepth is how many levels below every subtree root are broadcast
	// to all processes before traversal (the paper's branch-node sharing
	// knob). 0 shares root summaries only.
	ShareDepth int

	// Style selects the top-down traversal loop organization.
	Style TraversalStyle

	// Incremental enables between-timestep incremental tree updates: when
	// particles moved only slightly since the previous iteration, the
	// build patches the existing trees along dirty paths instead of
	// rebuilding, skips re-broadcasting unchanged subtree summaries, keeps
	// cached remote data whose home subtree is unchanged, and re-shares
	// only the buckets of dirty leaves. Results are bit-identical to a
	// from-scratch build. Reuse is decided per subtree: unsupported
	// configurations (non-octree trees, Hilbert or ORB decompositions) and
	// a changed universe leave nothing to reuse and every subtree is built
	// afresh, a changed subtree cover builds afresh only the subtrees that
	// are new — see Simulation.BuildStats and the core.* counters.
	Incremental bool

	// LB selects the load balancer; LBPeriod is how many iterations pass
	// between re-balancing (0 disables).
	LB       LBMode
	LBPeriod int

	// Latency and PerByte model the interconnect.
	Latency time.Duration
	PerByte time.Duration

	// Faults, when non-nil, injects deterministic delivery faults (drops,
	// duplicates, latency jitter, receive pauses) into the simulated
	// interconnect, driven by a PRNG seeded per proc pair from Faults.Seed.
	// Only fault-tolerant traffic (cache fetch/fill) is ever dropped or
	// duplicated; jitter and pauses apply to all cross-proc messages.
	// When Faults can lose messages, a cache fetch unanswered past a
	// deadline derived from the link model is re-sent with exponential
	// backoff; otherwise retries are disabled.
	Faults *FaultConfig

	// Metrics, when non-nil, enables the runtime observability layer: the
	// runtime, cache, and traversal engines record counters, sketches,
	// utilization profiles, and (optionally) trace spans into the registry.
	// Nil (the default) disables all collection at near-zero cost.
	Metrics *metrics.Registry
}

// fetchTimeout resolves the cache's first fill deadline: comfortably above
// one fault-free round trip when the configured faults can lose messages,
// and 0 (retries disabled) on a lossless link.
func (c *Config) fetchTimeout() time.Duration {
	if c.Faults == nil || (c.Faults.DropProb <= 0 && c.Faults.DupProb <= 0) {
		return 0
	}
	// One round trip costs up to 2*(Latency+JitterMax) plus per-byte time
	// and insert scheduling; the millisecond floor absorbs those.
	return 2*(c.Latency+c.Faults.JitterMax) + 4*time.Millisecond
}

// ParseFaultSpec builds a FaultConfig from a comma-separated spec like
// "drop=0.02,dup=0.02,jitter=200us,pause=1ms,pauseprob=0.01,seed=7" — the
// syntax the paratreet-bench and paratreet-serve -faults flags accept.
// Probabilities are in [0,1]; durations use Go syntax.
func ParseFaultSpec(spec string) (*FaultConfig, error) {
	fc := &FaultConfig{Seed: 1}
	for _, tok := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok {
			return nil, fmt.Errorf("bad faults entry %q (want key=value)", tok)
		}
		switch k {
		case "drop", "dup", "pauseprob":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("bad faults probability %q", tok)
			}
			switch k {
			case "drop":
				fc.DropProb = p
			case "dup":
				fc.DupProb = p
			default:
				fc.PauseProb = p
			}
		case "jitter", "pause":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("bad faults duration %q", tok)
			}
			if k == "jitter" {
				fc.JitterMax = d
			} else {
				fc.PauseMax = d
			}
		case "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad faults seed %q", tok)
			}
			fc.Seed = s
		default:
			return nil, fmt.Errorf("unknown faults key %q (have drop dup jitter pause pauseprob seed)", k)
		}
	}
	return fc, nil
}

// named pairs a command-line spelling with its value.
type named[T any] struct {
	name string
	v    T
}

// parseName returns the value spelled s (case-insensitively) among
// choices, or an error naming what was parsed and every choice.
func parseName[T any](what, s string, choices []named[T]) (T, error) {
	names := make([]string, len(choices))
	for i, c := range choices {
		if strings.EqualFold(s, c.name) {
			return c.v, nil
		}
		names[i] = c.name
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(names, "|"))
}

// ParseTree maps a -tree flag value (oct|kd|longest) to its TreeType.
func ParseTree(s string) (TreeType, error) {
	return parseName("tree type", s, []named[TreeType]{{"oct", TreeOct}, {"kd", TreeKD}, {"longest", TreeLongestDim}})
}

// ParseDecomp maps a -decomp flag value (sfc|hilbert|oct|orb) to its
// DecompType.
func ParseDecomp(s string) (DecompType, error) {
	return parseName("decomposition", s, []named[DecompType]{
		{"sfc", DecompSFC}, {"hilbert", DecompSFCHilbert}, {"oct", DecompOct}, {"orb", DecompORB}})
}

// ParseCachePolicy maps a -policy flag value
// (waitfree|xwrite|perthread) to its CachePolicy.
func ParseCachePolicy(s string) (CachePolicy, error) {
	return parseName("cache policy", s, []named[CachePolicy]{
		{"waitfree", CacheWaitFree}, {"xwrite", CacheXWrite}, {"perthread", CachePerThread}})
}

// ParseLB maps a -lb flag value (off|sfc|spatial) to its LBMode.
func ParseLB(s string) (LBMode, error) {
	return parseName("load balancer", s, []named[LBMode]{{"off", LBOff}, {"sfc", LBSFC}, {"spatial", LBSpatial}})
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Procs < 0 || c.WorkersPerProc < 0 || c.BuildWorkers < 0 {
		return fmt.Errorf("paratreet: negative machine dimensions")
	}
	if c.BucketSize < 0 || c.Partitions < 0 || c.Subtrees < 0 || c.FetchDepth < 0 {
		return fmt.Errorf("paratreet: negative decomposition parameters")
	}
	if c.LBPeriod < 0 {
		return fmt.Errorf("paratreet: negative LB period")
	}
	return nil
}
