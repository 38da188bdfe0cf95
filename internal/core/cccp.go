package core

import (
	"errors"
	"time"

	"plos/internal/obs"
	"plos/internal/optimize"
)

// CCCPStep runs one outer CCCP round: linearize at the current iterate,
// solve the convexified problem, and return its objective together with
// the number of effective labels that flipped. Wire trainers return -1
// flips: each device freezes its own signs and the coordinator never sees
// them.
type CCCPStep func(round int) (obj float64, flips int, err error)

// RunCCCP is the outer loop of the paper's Algorithms 1 and 2, shared by
// every trainer. Around step it owns the run's observation: the run
// counter, the run-start and run-end flight records, per round the CCCP
// counter, objective gauge, SpanCCCPIteration and cccp-iteration record,
// and the converged gauge. It fills the CCCP fields of info; the step
// accumulates everything else into the same info.
//
// prior resumes from a checkpointed objective history and clean marks
// degraded rounds (see optimize.CCCPResumeGuarded); both are nil for a
// fresh run. A round that raises the objective is a soft stop — CCCP's
// descent guarantee assumes an exact inner solver, so the iterate reached
// is kept and nil returned. Any other step error is returned unwrapped,
// without a run-end record.
func RunCCCP(cfg Config, trainer string, users int, prior []float64, clean func(round int) bool,
	info *TrainInfo, step CCCPStep) error {
	r := cfg.Obs
	ObserveRunStart(r, trainer, users)
	res, err := optimize.CCCPResumeGuarded(func(round int) (float64, error) {
		var start time.Time
		if r != nil {
			start = time.Now()
		}
		obj, flips, err := step(round)
		if err != nil {
			return obj, err
		}
		if r != nil {
			r.Counter(obs.MetricCCCPIterations, "").Inc()
			r.Gauge(obs.MetricTrainObjective, "").Set(obj)
			r.Span(obs.Span{Kind: obs.SpanCCCPIteration, Start: start,
				Dur: time.Since(start), Round: round, User: -1, Value: obj})
			if r.FlightEnabled() {
				r.FlightRecord(obs.Record{Kind: obs.RecordCCCPIteration, Round: round,
					Objective: obj, SignFlips: flips, Dur: time.Since(start)})
			}
		}
		return obj, nil
	}, cfg.CCCPTol, cfg.MaxCCCPIter, prior, clean)
	if err != nil && !errors.Is(err, optimize.ErrNotDescending) {
		return err
	}
	info.CCCPIterations = res.Iterations
	info.CCCPConverged = res.Converged
	info.Objective = res.Objective
	info.ObjectiveHistory = res.History
	ObserveRunEnd(r, *info)
	return nil
}

// ObserveRunStart counts a training run and opens its flight record.
// RunCCCP calls it; so does a shard of the sharded plane, which follows
// its aggregator's CCCP decisions instead of running the loop itself.
func ObserveRunStart(r *obs.Registry, trainer string, users int) {
	r.Counter(obs.MetricTrainRuns, "").Inc()
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordRunStart, Trainer: trainer, Users: users})
	}
}

// ObserveRunEnd closes a run's flight record and sets the converged gauge
// from the CCCP fields of info.
func ObserveRunEnd(r *obs.Registry, info TrainInfo) {
	if r == nil {
		return
	}
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordRunEnd, Converged: info.CCCPConverged,
			Objective: info.Objective, Round: info.CCCPIterations})
	}
	converged := 0.0
	if info.CCCPConverged {
		converged = 1
	}
	r.Gauge(obs.MetricCCCPConverged, "").Set(converged)
}
