// Package framework exercises the directive hygiene rules: a
// //paratreet:allow without a reason is itself a finding and suppresses
// nothing, one naming an unknown analyzer waives nothing, and a
// //paratreet: word no analyzer reads is a finding.
package framework

import "sync"

type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// bad carries a reasonless waiver: the waiver is flagged and the finding
// it meant to suppress still fires.
func bad(b *box) int {
	//paratreet:allow(lockcheck) // want `//paratreet:allow waiver without a reason`
	return b.n // want `guarded by "mu" but bad accesses it without acquiring`
}

// unknown names an analyzer that does not exist.
func unknown(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	//paratreet:allow(speedcheck) speed is never a finding // want `names unknown analyzer "speedcheck"`
	return b.n
}

// fine carries a well-formed waiver, which suppresses and is not a
// finding.
func fine(b *box) int {
	//paratreet:allow(lockcheck) quiescent snapshot read, workers joined
	return b.n
}

// stale carries a retired mark and a typo; neither does anything.
//
//paratreet:nilsafe // want `unknown directive //paratreet:nilsafe`
//paratreet:hotpth // want `unknown directive //paratreet:hotpth`
func stale() {}
