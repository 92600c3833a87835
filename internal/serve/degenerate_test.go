package serve_test

import (
	"fmt"
	"testing"

	"paratreet"
	"paratreet/internal/particle"
	"paratreet/internal/serve"
	"paratreet/internal/vec"
)

// degenerateSet returns n particles, either spread through the unit box or
// all coincident at one point.
func degenerateSet(n int, coincident bool) []paratreet.Particle {
	ps := particle.NewUniform(n, 5, vec.UnitBox())
	if coincident {
		for i := range ps {
			ps[i].Pos = paratreet.V(0.3, 0.6, 0.2)
		}
	}
	for i := range ps {
		ps[i].Radius = 0.004
	}
	return ps
}

// degenerateQueries asks the questions whose answers are the whole set or
// more than it: kNN with K = N and K > N, a range covering every particle,
// and a kNN from far outside the box.
func degenerateQueries(n int) []serve.Query {
	in := paratreet.V(0.5, 0.5, 0.5)
	return []serve.Query{
		{Kind: serve.KNN, Pos: in, K: n},
		{Kind: serve.KNN, Pos: in, K: n + 3},
		{Kind: serve.Range, Pos: in, Radius: 10},
		{Kind: serve.KNN, Pos: paratreet.V(40, -25, 90), K: n + 1},
	}
}

// TestEngineDegenerateAnswers holds the engine to a brute-force scan on the
// smallest resident sets, where the whole tree is one or a few leaves that
// may all live on another process than the one a query starts on.
func TestEngineDegenerateAnswers(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, coincident := range []bool{false, true} {
			for procs := 1; procs <= 4; procs++ {
				t.Run(fmt.Sprintf("n=%d/coincident=%v/procs=%d", n, coincident, procs), func(t *testing.T) {
					cfg := paratreet.Config{Procs: procs, WorkersPerProc: 1, BucketSize: 2}
					ps := degenerateSet(n, coincident)
					eng, err := serve.NewEngine(cfg, append([]paratreet.Particle(nil), ps...))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					checkAgainstBrute(t, "built", eng, ps)

					if err := eng.Refresh([]paratreet.Particle{}); err == nil {
						t.Fatal("Refresh over an empty set returned nil, want an error")
					}
					if got := eng.NumParticles(); got != n {
						t.Fatalf("NumParticles = %d after a refused Refresh, want %d", got, n)
					}
					checkAgainstBrute(t, "after refused refresh", eng, ps)

					// Shrinking a larger resident set down to this one
					// reaches the same state through Refresh.
					eng2, err := serve.NewEngine(cfg, degenerateSet(7, coincident))
					if err != nil {
						t.Fatal(err)
					}
					defer eng2.Close()
					if err := eng2.Refresh(append([]paratreet.Particle(nil), ps...)); err != nil {
						t.Fatal(err)
					}
					checkAgainstBrute(t, "refreshed down", eng2, ps)
				})
			}
		}
	}
}

func checkAgainstBrute(t *testing.T, what string, eng *serve.Engine, ps []paratreet.Particle) {
	t.Helper()
	qs := degenerateQueries(len(ps))
	got, err := eng.RunBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := bruteAnswer(ps, q)
		if len(want.Hits) != len(ps) {
			t.Fatalf("%s query %d: brute force found %d of %d particles; every query here asks for all", what, i, len(want.Hits), len(ps))
		}
		diffAnswers(t, what, i, q, got[i], want)
	}
}
