// Package hotpathdata seeds per-visit-discipline violations for the
// hotpath analyzer's golden test.
package hotpathdata

import (
	"fmt"
	"time"
)

// visit is the marked root; it is clean itself but reaches step.
//
//paratreet:hotpath
func visit(xs []int) int {
	total := 0
	for _, x := range xs {
		total += step(x)
	}
	return total
}

// step is reachable from visit through an intra-package call, so it
// inherits the hotpath constraints.
func step(x int) int {
	t := time.Now()              // want `step \(reachable from hotpath visit\) calls time\.Now`
	defer cleanup()              // want `uses defer`
	m := make(map[int]int, 4)    // want `allocates a map`
	lit := map[int]int{x: x}     // want `allocates a map`
	f := func() int { return x } // want `creates a closure`
	fmt.Println(x)               // want `calls fmt\.Println`
	elapsed := time.Since(t)     // want `calls time\.Since`
	return len(m) + len(lit) + f() + int(elapsed)
}

func cleanup() {}

// miss is a coldpath: propagation stops here, so its clocks and closures
// are fine even though visit calls it.
//
//paratreet:coldpath
func miss(x int) int {
	start := time.Now()
	defer cleanup()
	f := func() int { return x }
	return f() + int(time.Since(start))
}

//paratreet:hotpath
func visitWithMiss(xs []int) int {
	total := 0
	for _, x := range xs {
		total += miss(x)
	}
	return total
}

// direct violations in the marked function itself are attributed to it.
//
//paratreet:hotpath
func spawny() {
	go cleanup() // want `spawny launches a goroutine per visit`
}

// notHot is unmarked and unreachable from any root: anything goes.
func notHot() time.Time {
	defer cleanup()
	return time.Now()
}

// closures created by a hot function are reported once; their bodies run
// at their own granularity and are not re-checked.
//
//paratreet:hotpath
func closureOnly() func() time.Time {
	return func() time.Time { return time.Now() } // want `creates a closure`
}

// conflicted carries both directives, which is a contradiction.
//
//paratreet:hotpath
//paratreet:coldpath
func conflicted() {} // want `marked both`

// poll waits by the clock: flagged in any function of an event-driven
// package, hot or not, however deep the loop nesting.
func poll(ready func() bool) {
	for !ready() {
		time.Sleep(time.Microsecond) // want `time\.Sleep in a loop polls by the host timer`
	}
	for range 3 {
		if !ready() {
			for {
				time.Sleep(time.Millisecond) // want `time\.Sleep in a loop`
			}
		}
	}
}

// pause sleeps once, outside any loop (rt.deliver's injected fault pause
// has this shape), and a closure made in a loop runs when it is called,
// not per iteration: neither is a poll. A loop inside that closure is.
func pause(d time.Duration) []func() {
	time.Sleep(d)
	var fs []func()
	for i := 0; i < 2; i++ {
		fs = append(fs, func() { time.Sleep(d) })
		fs = append(fs, func() {
			for {
				time.Sleep(d) // want `time\.Sleep in a loop`
			}
		})
	}
	return fs
}

var _ = []any{visit([]int{1}), visitWithMiss(nil), notHot(), closureOnly()}

func init() {
	spawny()
	conflicted()
	poll(func() bool { return true })
	pause(0)
}
