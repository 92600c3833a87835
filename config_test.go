package paratreet_test

import (
	"strings"
	"testing"
	"time"

	"paratreet"
)

// TestFetchTimeoutDerivation pins the cache fill deadline to the link
// model: retries only when faults can lose a message, and then a deadline
// above one round trip at the worst jitter.
func TestFetchTimeoutDerivation(t *testing.T) {
	const latency, jitter = 20 * time.Microsecond, 300 * time.Microsecond
	lossy := 2*(latency+jitter) + 4*time.Millisecond
	for _, tc := range []struct {
		name   string
		faults *paratreet.FaultConfig
		want   time.Duration
	}{
		{"lossless", nil, 0},
		{"delay only", &paratreet.FaultConfig{JitterMax: jitter, PauseProb: 0.5, PauseMax: time.Millisecond}, 0},
		{"drop", &paratreet.FaultConfig{DropProb: 0.01, JitterMax: jitter}, lossy},
		{"dup", &paratreet.FaultConfig{DupProb: 0.01, JitterMax: jitter}, lossy},
	} {
		cfg := paratreet.Config{Latency: latency, Faults: tc.faults}
		if got := paratreet.FetchTimeoutOf(&cfg); got != tc.want {
			t.Errorf("%s: fetch timeout %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestParseNames maps every accepted spelling of the tree, decomposition,
// cache-policy and load-balancer flags to its value, in any case, and
// checks that an unknown name errors and lists every choice.
func TestParseNames(t *testing.T) {
	type spelling struct {
		name string
		want any
	}
	for _, tc := range []struct {
		kind    string
		parse   func(string) (any, error)
		choices []spelling
	}{
		{"tree", func(s string) (any, error) { return paratreet.ParseTree(s) }, []spelling{
			{"oct", paratreet.TreeOct}, {"kd", paratreet.TreeKD}, {"longest", paratreet.TreeLongestDim}}},
		{"decomp", func(s string) (any, error) { return paratreet.ParseDecomp(s) }, []spelling{
			{"sfc", paratreet.DecompSFC}, {"hilbert", paratreet.DecompSFCHilbert},
			{"oct", paratreet.DecompOct}, {"orb", paratreet.DecompORB}}},
		{"policy", func(s string) (any, error) { return paratreet.ParseCachePolicy(s) }, []spelling{
			{"waitfree", paratreet.CacheWaitFree}, {"xwrite", paratreet.CacheXWrite},
			{"perthread", paratreet.CachePerThread}}},
		{"lb", func(s string) (any, error) { return paratreet.ParseLB(s) }, []spelling{
			{"off", paratreet.LBOff}, {"sfc", paratreet.LBSFC}, {"spatial", paratreet.LBSpatial}}},
	} {
		for _, c := range tc.choices {
			for _, s := range []string{c.name, strings.ToUpper(c.name)} {
				got, err := tc.parse(s)
				if err != nil || got != c.want {
					t.Errorf("%s %q: got %v, %v; want %v", tc.kind, s, got, err, c.want)
				}
			}
		}
		_, err := tc.parse("bogus")
		if err == nil {
			t.Fatalf("%s: bogus accepted", tc.kind)
		}
		for _, c := range tc.choices {
			if !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s: error %q does not list %q", tc.kind, err, c.name)
			}
		}
	}
}
