package shard

import (
	"math"
	"testing"

	"plos/internal/mat"
	"plos/internal/rng"
)

func randVecs(seed int64, n, dim int) []mat.Vector {
	g := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		v := mat.NewVector(dim)
		for j := range v {
			v[j] = g.Norm()
		}
		out[i] = v
	}
	return out
}

// One partition holding the whole population must reproduce the
// sequential federated-init loop bit for bit — the K=1 leg of the
// bit-identity contract — on both the label-weighted path and the
// no-labels fallback. The reference is the loop shape core.FederatedInit
// had before it was written over NewInitPartial and FoldInit.
func TestFoldInitSinglePartitionMatchesFederatedInit(t *testing.T) {
	ws := randVecs(3, 7, 5)
	for name, weights := range map[string][]float64{
		"weighted": {3, 0, 1, 0, 2, 5, 0},
		"fallback": {0, 0, 0, 0, 0, 0, 0},
	} {
		want := mat.NewVector(5)
		var total float64
		for i, w := range ws {
			if weights[i] > 0 {
				want.AddScaled(weights[i], w)
				total += weights[i]
			}
		}
		if total > 0 {
			want.Scale(1 / total)
		} else {
			for _, w := range ws {
				want.Add(w)
			}
			want.Scale(1 / float64(len(ws)))
		}
		got := FoldInit([]InitPartial{NewInitPartial(ws, weights, 5)}, len(ws))
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: w0[%d] = %x, sequential init has %x", name, j, got[j], want[j])
			}
		}
	}
}

// Fold of a single partial must return exactly that partial's bits (and a
// fresh vector, not an alias).
func TestFoldSinglePartialIsIdentity(t *testing.T) {
	p := randVecs(9, 1, 4)[0]
	p[2] = math.Copysign(0, -1) // −0 would become +0 under 0 + x folding
	got := Fold([]mat.Vector{p})
	for j := range p {
		if math.Float64bits(got[j]) != math.Float64bits(p[j]) {
			t.Fatalf("Fold single: slot %d changed bits", j)
		}
	}
	got[0] = 999
	if p[0] == 999 {
		t.Fatal("Fold must clone, not alias, its single partial")
	}
}

// SumXU and ApplyZ must mirror admm.Consensus.Step's per-worker operation
// order: for one partition covering all workers, the folded z-input sum
// and primal partial match a hand-rolled Step-shaped loop bitwise.
func TestSumXUAndApplyZMirrorStepShape(t *testing.T) {
	const n, dim = 6, 4
	xs := randVecs(11, n, dim)
	us := randVecs(12, n, dim)
	// Reference: the exact loop shape of admm.Consensus.Step.
	refSum := mat.NewVector(dim)
	for i := range xs {
		refSum.Add(xs[i])
		refSum.Add(us[i])
	}
	gotSum := Fold([]mat.Vector{SumXU(xs, us, dim)})
	for j := range refSum {
		if gotSum[j] != refSum[j] {
			t.Fatalf("SumXU slot %d: %x, Step shape has %x", j, gotSum[j], refSum[j])
		}
	}

	z := randVecs(13, 1, dim)[0]
	refUs := make([]mat.Vector, n)
	var refPrimal float64
	for i := range xs {
		refUs[i] = us[i].Clone()
		du := mat.SubVec(xs[i], z)
		refPrimal += du.SquaredNorm()
		refUs[i].Add(du)
	}
	gotPrimal := FoldScalars([]float64{ApplyZ(xs, us, z)})
	if gotPrimal != refPrimal {
		t.Fatalf("ApplyZ primal partial %x, Step shape has %x", gotPrimal, refPrimal)
	}
	for i := range us {
		for j := range us[i] {
			if us[i][j] != refUs[i][j] {
				t.Fatalf("ApplyZ dual %d slot %d diverged from Step shape", i, j)
			}
		}
	}
}
