package shard

import "plos/internal/mat"

// The helpers below fix the summation shape of every cross-user reduction
// in training: a partition computes its partial with per-element
// operations in slot order, and partials are folded in partition order.
// They are the only implementation of that shape — admm.Consensus.Step
// and core.FederatedInit are written over them as the one-partition case,
// and the coordinator, the shards and the aggregator all reduce through
// them — so bit-identity between the planes comes from shared code.

// SumXU is one partition's consensus partial Σ(x_i + u_i), accumulated in
// index order (x then u, per worker). xs and us are aligned.
func SumXU(xs, us []mat.Vector, dim int) mat.Vector {
	sum := mat.NewVector(dim)
	for i, x := range xs {
		sum.Add(x)
		sum.Add(us[i])
	}
	return sum
}

// ApplyZ folds a freshly reduced consensus z into one partition's scaled
// duals (u_i += x_i − z, in place) and returns the partition's
// primal-residual partial Σ‖x_i − z‖² — the dual-update half of a
// consensus step.
func ApplyZ(xs, us []mat.Vector, z mat.Vector) float64 {
	var primalSq float64
	for i, x := range xs {
		du := mat.SubVec(x, z)
		primalSq += du.SquaredNorm()
		us[i].Add(du)
	}
	return primalSq
}

// Fold reduces per-partition vector partials in partition order. The
// first partial is cloned rather than added to a zero vector so a single
// partition folds to exactly its own bits (0 + (−0) would flip signed
// zeros). Returns nil for no partials.
func Fold(partials []mat.Vector) mat.Vector {
	if len(partials) == 0 {
		return nil
	}
	total := partials[0].Clone()
	for _, p := range partials[1:] {
		total.Add(p)
	}
	return total
}

// FoldScalars reduces per-partition scalar partials in partition order.
func FoldScalars(partials []float64) float64 {
	if len(partials) == 0 {
		return 0
	}
	total := partials[0]
	for _, p := range partials[1:] {
		total += p
	}
	return total
}

// FoldObjective folds per-partition Eq. (23) objective partials onto the
// global ‖w0‖² term in partition order — the objective shape shared by the
// aggregator and the single coordinator.
func FoldObjective(w0Sq float64, partials []float64) float64 {
	obj := w0Sq
	for _, p := range partials {
		obj += p
	}
	return obj
}

// InitPartial is one partition's contribution to the federated w0
// initialization: the label-weighted sum of its local hyperplanes, the
// plain sum (used only when no user in the whole population has labels),
// and the partition's total label weight.
type InitPartial struct {
	Weighted mat.Vector
	Plain    mat.Vector
	Weight   float64
}

// NewInitPartial accumulates one partition's init contribution in slot
// order; users with no positive label weight enter only the plain sum.
func NewInitPartial(ws []mat.Vector, weights []float64, dim int) InitPartial {
	p := InitPartial{Weighted: mat.NewVector(dim), Plain: mat.NewVector(dim)}
	for i, w := range ws {
		if weights[i] > 0 {
			p.Weighted.AddScaled(weights[i], w)
			p.Weight += weights[i]
		}
		p.Plain.Add(w)
	}
	return p
}

// FoldInit folds partition init contributions into the starting w0 for a
// population of total users: the label-weighted average when any user has
// labels, the plain average otherwise. The result aliases no partial.
func FoldInit(partials []InitPartial, total int) mat.Vector {
	if len(partials) == 0 || total == 0 {
		return nil
	}
	weighted := make([]mat.Vector, len(partials))
	plain := make([]mat.Vector, len(partials))
	wts := make([]float64, len(partials))
	for i, p := range partials {
		weighted[i], plain[i], wts[i] = p.Weighted, p.Plain, p.Weight
	}
	if wt := FoldScalars(wts); wt > 0 {
		sum := Fold(weighted)
		sum.Scale(1 / wt)
		return sum
	}
	sum := Fold(plain)
	sum.Scale(1 / float64(total))
	return sum
}
