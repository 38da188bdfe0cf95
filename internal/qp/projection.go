package qp

import (
	"fmt"
	"slices"

	"plos/internal/mat"
)

// ProjectNonneg clamps x to the nonnegative orthant in place.
func ProjectNonneg(x mat.Vector) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ProjectSimplex projects x in place onto the scaled simplex
// {z >= 0, Σ z_i = b} using the O(n log n) sort-and-threshold algorithm.
// It panics if b < 0.
func ProjectSimplex(x mat.Vector, b float64) {
	projectSimplex(x, b, make(mat.Vector, len(x)))
}

// projectSimplex is ProjectSimplex with a caller-provided sort buffer of
// len(x).
func projectSimplex(x mat.Vector, b float64, sorted mat.Vector) {
	if b < 0 {
		panic(fmt.Sprintf("qp: ProjectSimplex: negative budget %g", b))
	}
	n := len(x)
	if n == 0 {
		return
	}
	if b == 0 {
		x.Zero()
		return
	}
	// Find threshold θ such that Σ max(x_i − θ, 0) = b, visiting the
	// values in descending order: sorted ascending, read from the end.
	copy(sorted, x)
	slices.Sort(sorted)
	var cum float64
	theta := sorted[n-1] - b // fallback for k = 1
	for k := 1; k <= n; k++ {
		v := sorted[n-k]
		cum += v
		t := (cum - b) / float64(k)
		if v-t > 0 {
			theta = t
		} else {
			break
		}
	}
	for i, v := range x {
		if v-theta > 0 {
			x[i] = v - theta
		} else {
			x[i] = 0
		}
	}
}

// ProjectBudget projects x in place onto {z >= 0, Σ z_i <= b}: if clamping
// to the orthant already satisfies the budget the clamp is the projection;
// otherwise the projection lies on the face Σ z = b and reduces to
// ProjectSimplex.
func ProjectBudget(x mat.Vector, b float64) {
	projectBudget(x, b, make(mat.Vector, len(x)))
}

// projectBudget is ProjectBudget with a caller-provided sort buffer of
// len(x).
func projectBudget(x mat.Vector, b float64, sorted mat.Vector) {
	if b < 0 {
		panic(fmt.Sprintf("qp: ProjectBudget: negative budget %g", b))
	}
	var clampedSum float64
	for _, v := range x {
		if v > 0 {
			clampedSum += v
		}
	}
	if clampedSum <= b {
		ProjectNonneg(x)
		return
	}
	projectSimplex(x, b, sorted)
}

// GroupSpec describes disjoint index groups, each with its own budget cap
// Σ_{i∈Groups[g]} x_i <= Budgets[g]. Indices not covered by any group are
// constrained only to x_i >= 0.
type GroupSpec struct {
	Groups  [][]int
	Budgets []float64
}

// Validate checks that the spec is well formed for a problem of dimension n:
// group/budget lengths match, budgets are nonnegative, indices are in range
// and used at most once.
func (s *GroupSpec) Validate(n int) error {
	var sc Scratch
	return sc.cover(s, n)
}

// Project projects x in place onto the feasible set described by the spec.
// Because the groups are disjoint, the projection factorizes exactly. It
// panics if the spec is not valid for len(x). Each call allocates its
// working buffers; Solve projects through a reused Scratch instead.
func (s *GroupSpec) Project(x mat.Vector) {
	var sc Scratch
	if err := sc.cover(s, len(x)); err != nil {
		panic(err)
	}
	sc.grow(len(x))
	sc.project(s, x)
}

// Feasible reports whether x satisfies the constraints within tol.
func (s *GroupSpec) Feasible(x mat.Vector, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for g, idx := range s.Groups {
		var sum float64
		for _, i := range idx {
			sum += x[i]
		}
		if sum > s.Budgets[g]+tol {
			return false
		}
	}
	return true
}
