package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"plos/internal/admm"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/optimize"
	"plos/internal/qp"
	"plos/internal/rng"
	"plos/internal/shard"
	"plos/internal/transport"
)

// replayShape sizes the per-call replays like the workload that ran.
type replayShape struct {
	seed int64
	// data are the users whose samples build the replayed constraints;
	// perUser[t] is how many constraints user t contributes to the
	// restricted dual (its size and grouping).
	data       []core.UserData
	perUser    []int
	totalUsers int // T, which sets the dual budgets and the λ/T coupling
	dim        int
	// reducers is how many users one coordinator folds per ADMM round.
	reducers int
	cfg      core.Config // the device configuration
}

// cost is the per-call price of one public function.
type cost struct{ ns, bytes, allocs float64 }

// replayTime is how long measure runs a call after calibrating.
const replayTime = 100 * time.Millisecond

// measure runs op until it has taken at least replayTime and returns the
// mean cost of one call.
func measure(op func()) cost {
	op()
	for n := 1; ; {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		if el >= replayTime {
			f := float64(n)
			return cost{ns: float64(el.Nanoseconds()) / f,
				bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / f,
				allocs: float64(m1.Mallocs-m0.Mallocs) / f}
		}
		next := 100 * n
		if el > 0 {
			next = min(next, int(float64(n)*1.2*float64(replayTime)/float64(el))+1)
		}
		n = next
	}
}

// replays measures every layer's public function on inputs shaped like the
// workload and returns the per-layer metrics they produce.
func replays(sh replayShape) (map[string]float64, error) {
	out := make(map[string]float64)
	g := rng.New(sh.seed).Split("replay")
	lambda := 100.0 // the core default every workload trains with
	dev := sh.data[0]

	// core: a cold device solve (sign refresh, then the local
	// cutting-plane loop), as each ADMM round's first solve runs it.
	wk, err := core.NewWorker(dev, sh.totalUsers, sh.cfg)
	if err != nil {
		return nil, err
	}
	w0 := g.NormVector(sh.dim)
	w0.Scale(0.1)
	u := mat.NewVector(sh.dim)
	var solveErr error
	c := measure(func() {
		wk.RefreshSigns(w0)
		_, _, _, solveErr = wk.Solve(w0, u, 1)
	})
	if solveErr != nil {
		return nil, fmt.Errorf("replay Worker.Solve: %w", solveErr)
	}
	out["core.worker_solve_ns"], out["core.worker_solve_allocs"] = c.ns, c.allocs

	// optimize: one user's most-violated constraint.
	eff, weight := signsAndWeights(dev, w0)
	var mvErr error
	c = measure(func() { _, mvErr = optimize.MostViolated(dev.X, eff, weight, w0) })
	if mvErr != nil {
		return nil, fmt.Errorf("replay MostViolated: %w", mvErr)
	}
	out["optimize.most_violated_ns"], out["optimize.most_violated_allocs"] = c.ns, c.allocs

	// qp and mat: the restricted dual at the workload's size and grouping.
	prob, cell, err := restrictedDual(sh, lambda, g.Split("dual"))
	if err != nil {
		return nil, err
	}
	n := len(prob.C)
	var gram qp.GramCache
	out["qp.gram_grow_ns"] = measure(func() {
		gram.Reset()
		gram.Grow(n, 1, cell)
	}).ns
	var scratch qp.Scratch
	var qpErr error
	c = measure(func() {
		_, _, qpErr = qp.Solve(prob, qp.Options{MaxIter: 5000, Tol: 1e-9,
			LipschitzBound: gram.Bound(), Scratch: &scratch})
	})
	if qpErr != nil && !errors.Is(qpErr, qp.ErrMaxIterations) {
		return nil, fmt.Errorf("replay qp.Solve: %w", qpErr)
	}
	out["qp.solve_ns"], out["qp.solve_bytes"], out["qp.solve_allocs"] = c.ns, c.bytes, c.allocs

	group := len(prob.Groups.Groups[0])
	x0 := g.NormVector(group)
	x := mat.NewVector(group)
	c = measure(func() {
		copy(x, x0)
		qp.ProjectSimplex(x, prob.Groups.Budgets[0])
	})
	out["qp.project_simplex_ns"], out["qp.project_simplex_allocs"] = c.ns, c.allocs

	v := g.NormVector(n)
	dst := mat.NewVector(n)
	out["mat.mulvec_ns"] = measure(func() { prob.G.MulVecTo(dst, v) }).ns

	// admm and shard: one coordinator's consensus step and reduce over its
	// users' local solutions.
	xs := make([]mat.Vector, sh.reducers)
	us := make([]mat.Vector, sh.reducers)
	for i := range xs {
		xs[i] = g.NormVector(sh.dim)
		us[i] = g.NormVector(sh.dim)
	}
	cons, err := admm.NewConsensus(sh.dim, sh.reducers, 1, admm.SquaredNormZ)
	if err != nil {
		return nil, err
	}
	var stepErr error
	c = measure(func() { _, stepErr = cons.Step(xs) })
	if stepErr != nil {
		return nil, fmt.Errorf("replay Consensus.Step: %w", stepErr)
	}
	out["admm.step_ns"], out["admm.step_allocs"] = c.ns, c.allocs
	half := sh.reducers / 2
	out["shard.fold_ns"] = measure(func() {
		shard.Fold([]mat.Vector{
			shard.SumXU(xs[:half], us[:half], sh.dim),
			shard.SumXU(xs[half:], us[half:], sh.dim),
		})
	}).ns

	// transport: the codec on one ADMM params message.
	msg := transport.Message{Type: transport.MsgParams, Round: 7, W0: xs[0], U: us[0]}
	frame := transport.EncodeMessage(msg)
	enc := measure(func() { transport.EncodeMessage(msg) })
	var decErr error
	dec := measure(func() { _, decErr = transport.DecodeMessage(frame) })
	if decErr != nil {
		return nil, fmt.Errorf("replay DecodeMessage: %w", decErr)
	}
	out["transport.encode_ns"], out["transport.decode_ns"] = enc.ns, dec.ns
	out["transport.codec_allocs"] = enc.allocs + dec.allocs
	return out, nil
}

// signsAndWeights freezes a user's effective labels at w and gives each
// sample the default loss weight (Cl/m labeled, Cu/m unlabeled).
func signsAndWeights(u core.UserData, w mat.Vector) (eff, weight []float64) {
	m := u.NumSamples()
	eff = make([]float64, m)
	weight = make([]float64, m)
	for i := 0; i < m; i++ {
		switch {
		case i < len(u.Y):
			eff[i], weight[i] = u.Y[i], 1/float64(m)
		case w.Dot(u.X.Row(i)) >= 0:
			eff[i], weight[i] = 1, 0.2/float64(m)
		default:
			eff[i], weight[i] = -1, 0.2/float64(m)
		}
	}
	return eff, weight
}

// restrictedDual builds the PLOS restricted dual (paper Eq. 16) the way the
// centralized trainer lays it out: constraints arrive one per user per cut
// round, each the most-violated constraint at a perturbed hyperplane; the
// Gram cell couples every pair through w0 (λ/T) and pairs of one user
// through their own hyperplane; each user's duals share the budget T/(2λ).
func restrictedDual(sh replayShape, lambda float64, g *rng.RNG) (*qp.Problem, func(i, j int) float64, error) {
	type ref struct {
		user int
		a    mat.Vector
	}
	var flat []ref
	var cvec mat.Vector
	groups := make([][]int, len(sh.data))
	budgets := make([]float64, len(sh.data))
	rounds := 0
	for t := range sh.perUser {
		rounds = max(rounds, sh.perUser[t])
		budgets[t] = float64(sh.totalUsers) / (2 * lambda)
	}
	for k := 0; k < rounds; k++ {
		for t, u := range sh.data {
			if k >= sh.perUser[t] {
				continue
			}
			w := g.NormVector(sh.dim)
			w.Scale(0.2)
			eff, weight := signsAndWeights(u, w)
			c, err := optimize.MostViolated(u.X, eff, weight, w)
			if err != nil {
				return nil, nil, fmt.Errorf("replay dual: %w", err)
			}
			groups[t] = append(groups[t], len(flat))
			flat = append(flat, ref{user: t, a: c.A})
			cvec = append(cvec, c.C)
		}
	}
	lot := lambda / float64(sh.totalUsers)
	cell := func(i, j int) float64 {
		dot := flat[i].a.Dot(flat[j].a)
		v := lot * dot
		if flat[i].user == flat[j].user {
			v += dot
		}
		return v
	}
	var gram qp.GramCache
	G := gram.Grow(len(flat), 1, cell)
	return &qp.Problem{G: G, C: cvec, Groups: qp.GroupSpec{Groups: groups, Budgets: budgets}}, cell, nil
}
