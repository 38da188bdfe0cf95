//go:build !race

package qp

import (
	"math/rand"
	"testing"
)

// With a reused Scratch, Solve's allocations do not depend on how many
// FISTA iterations it runs: the gradient, the projection and the momentum
// step allocate nothing. (The race detector perturbs allocation counts,
// hence the build tag.)
func TestSolveAllocsIndependentOfIterations(t *testing.T) {
	p := randomPSDProblem(rand.New(rand.NewSource(3)), 80, 6)
	// Leave some indices ungrouped so the uncovered clamp pass runs too.
	p.Groups.Groups = p.Groups.Groups[:len(p.Groups.Groups)-1]
	p.Groups.Budgets = p.Groups.Budgets[:len(p.Groups.Budgets)-1]
	var sc Scratch
	allocs := func(maxIter int) float64 {
		// A tolerance no iterate reaches: every solve runs all maxIter
		// iterations, so the two counts differ only in iterations.
		opts := Options{MaxIter: maxIter, Tol: 1e-300, Scratch: &sc}
		if _, info, _ := Solve(p, opts); info.Iterations != maxIter {
			t.Fatalf("MaxIter %d: stopped after %d iterations", maxIter, info.Iterations)
		}
		return testing.AllocsPerRun(20, func() { Solve(p, opts) })
	}
	// Both counts are above 255: the ErrMaxIterations message formats
	// Iterations, and fmt boxes integers below 256 without allocating.
	few, many := allocs(300), allocs(3000)
	if few != many {
		t.Fatalf("Solve allocs: %v at MaxIter 300, %v at MaxIter 3000; want equal (none per iteration)", few, many)
	}
	t.Logf("Solve allocs per call with a reused Scratch: %v", few)
}
