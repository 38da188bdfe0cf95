package qp

import (
	"fmt"

	"plos/internal/mat"
)

// Scratch holds the solver's working buffers: the four FISTA iterates (x,
// y, grad, xNext) and the projection's per-group gather buffer, simplex
// sort buffer and covered-index mask. Callers that solve a sequence of
// related problems — cutting-plane rounds, ADMM x-updates — pass one so
// repeated solves reuse them. The zero value is ready to use; buffers grow
// on demand and are reused across calls.
//
// A Scratch is owned by one solving goroutine at a time: it is not safe for
// concurrent Solve calls. The vector returned by Solve never aliases the
// scratch buffers (it is copied out), so results stay valid across later
// solves that reuse the same scratch.
type Scratch struct {
	// buf backs every float buffer of a problem of dimension n: x, y,
	// grad and xNext, then the gather and sort buffers, n each (no group
	// is longer than n). One array keeps Scratch small, which matters to
	// callers that embed one per device.
	buf mat.Vector
	// covered[i] reports whether a group contains index i; partial is
	// set when some index is in no group and needs its own clamp.
	covered []bool
	partial bool
}

// cover validates spec for a problem of dimension n — it is the one
// implementation of GroupSpec.Validate — and sets the covered mask and the
// partial flag for it.
func (s *Scratch) cover(spec *GroupSpec, n int) error {
	if len(spec.Groups) != len(spec.Budgets) {
		return fmt.Errorf("qp: GroupSpec: %d groups but %d budgets", len(spec.Groups), len(spec.Budgets))
	}
	if cap(s.covered) < n {
		s.covered = make([]bool, n)
	}
	s.covered = s.covered[:n]
	clear(s.covered)
	grouped := 0
	for g, idx := range spec.Groups {
		if spec.Budgets[g] < 0 {
			return fmt.Errorf("qp: GroupSpec: group %d has negative budget %g", g, spec.Budgets[g])
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("qp: GroupSpec: group %d index %d out of range [0,%d)", g, i, n)
			}
			if s.covered[i] {
				return fmt.Errorf("qp: GroupSpec: index %d appears in multiple groups", i)
			}
			s.covered[i] = true
		}
		grouped += len(idx)
	}
	s.partial = grouped < n
	return nil
}

// grow sizes buf for a problem of dimension n.
func (s *Scratch) grow(n int) {
	if cap(s.buf) < 6*n {
		s.buf = make(mat.Vector, 6*n)
	}
}

// iterates returns the four iterate buffers of length n; grow(n) must have
// run. Contents are undefined; Solve initializes x (and copies it into y)
// before the first iteration.
func (s *Scratch) iterates(n int) (x, y, grad, xNext mat.Vector) {
	return s.buf[:n], s.buf[n : 2*n], s.buf[2*n : 3*n], s.buf[3*n : 4*n]
}

// project projects x in place onto the feasible set of spec, which must be
// the spec last passed to cover, with n = len(x) and grow(n) run. It
// allocates nothing.
func (s *Scratch) project(spec *GroupSpec, x mat.Vector) {
	n := len(x)
	gather, sorted := s.buf[4*n:5*n], s.buf[5*n:6*n]
	for g, idx := range spec.Groups {
		buf := gather[:len(idx)]
		for k, i := range idx {
			buf[k] = x[i]
		}
		projectBudget(buf, spec.Budgets[g], sorted[:len(idx)])
		for k, i := range idx {
			x[i] = buf[k]
		}
	}
	if s.partial {
		for i, v := range x {
			if !s.covered[i] && v < 0 {
				x[i] = 0
			}
		}
	}
}
