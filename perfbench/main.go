// Command perfbench is the repository's end-to-end benchmark: closed-loop
// PLOS trainings (one in flight; the next starts when the previous returns)
// on two workloads, measured from outside through the public functions of
// the training layers.
//
//	central-har  core.TrainCentralized over a stream of reduced Fig. 5 HAR
//	             cohorts (10 users × 40 samples × 120 features).
//	shard-10k    one protocol.RunAggregator and 2 protocol.RunShard serving
//	             10,000 tiny devices with pinned budgets (BENCH_7.json).
//
// Run it from the repository root through its launcher, which builds it:
//
//	bash perfbench/run.sh --workload central-har --seed 3 --seconds 20 --trace 0
//
// Every input comes from --seed before the clock starts. Set-up (input
// generation plus one untimed warm-up training) is repeated and its median
// reported as setup_s. --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced trainings of the same inputs, and reports
// the per-layer metrics: counts from the program's obs registry and result
// structs, per-call costs from replaying each layer's public function on
// inputs shaped like the workload, and the tracing overhead. The
// benchmark's own spans are written to .bench_build/trace.
//
// Any failed output check — an error, a dropped device, a non-finite
// objective, a user without a model, or two trainings of one input that
// disagree — prints "correct": false and exits 1. Develop on seeds below
// 1000; re-check a claim with --heldout on a fresh seed of 1000 or more,
// which --heldout enforces.
//
// Standard output holds JSON lines: the environment (nproc, GOMAXPROCS, Go
// version, commit, source digest, seed), the rank and sample count behind
// train_s.tail, and last the result object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"plos/internal/obs"
	"plos/internal/parallel"
)

// Run limits.
const (
	setupReps   = 3                // set-ups per trace-off run; setup_s is their median
	maxTailWait = 60 * time.Second // longest wait past --seconds for enough tail samples
	heldoutMin  = 1000             // seeds below this are for development
)

type options struct {
	workload       string
	seed           int64
	seconds        int
	trace, heldout bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "central-har or shard-10k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of timed trainings")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.BoolVar(&o.heldout, "heldout", false, fmt.Sprintf("mark a held-out re-check (requires --seed >= %d)", heldoutMin))
	flag.Parse()
	o.trace = trace == 1
	if err := validate(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "failed_ratio %g (%d failed of %d attempted)\n",
		failedRatio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(o options, trace int) error {
	if _, ok := findWorkload(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.heldout && o.seed < heldoutMin {
		return fmt.Errorf("--heldout needs a seed of at least %d, got %d", heldoutMin, o.seed)
	}
	return nil
}

// run sets up, runs the closed loop and reports. The returned result is
// filled as far as the run got, also on error.
func run(o options) (result, error) {
	res := result{Metrics: map[string]metric{}}
	w, _ := findWorkload(o.workload)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	printEnv(o)

	reps := setupReps
	if o.trace {
		reps = 1 // a traced run reports no set-up time
	}
	var in inputs
	var setups []float64
	var ref outcome
	for r := 0; r < reps; r++ {
		start := time.Now()
		sp := tr.open("setup", -1, 0)
		gen := tr.open("generate", -1, sp)
		var err error
		in, err = w.generate(o.seed)
		tr.close(gen)
		if err != nil {
			return res, err
		}
		warm, err := in.train(0, callCtx{tr: tr, train: -1, parent: sp})
		tr.close(sp)
		if err != nil {
			return res, fmt.Errorf("warm-up training: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r > 0 && !sameResult(ref, warm) {
			return res, errors.New("two warm-up trainings of one input disagree")
		}
		ref = warm
	}
	first := map[int]outcome{0: ref}
	check := func(k int, out outcome) error {
		if prev, ok := first[k]; ok && !sameResult(prev, out) {
			return fmt.Errorf("two trainings of input %d disagree: objective %v vs %v, bytes/user %v/%v vs %v/%v",
				k, prev.objective, out.objective, prev.uplink, prev.downlink, out.uplink, out.downlink)
		}
		first[k] = out
		return nil
	}

	if o.trace {
		err := traced(o, w, in, tr, check, &res)
		return res, err
	}

	var samples []outcome
	secs := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	for i := 0; ; i++ {
		el := time.Since(begin)
		if el >= secs && len(samples) > tailMin {
			break
		}
		if el >= secs+maxTailWait {
			return res, fmt.Errorf("only %d trainings in %v; the tail needs %d", len(samples), el, tailMin+1)
		}
		k := i % in.size()
		res.Attempted++
		s, err := in.train(k, callCtx{train: i})
		if err == nil {
			err = check(k, s)
		}
		if err != nil {
			res.Failed++
			return res, fmt.Errorf("training %d (input %d): %w", i, k, err)
		}
		samples = append(samples, s)
	}
	res.Metrics = endToEndMetrics(median(setups), samples)
	res.Correct = true
	printTable(res.Metrics, endToEnd)
	t, _ := tailPercentile(trainTimes(samples))
	printJSON(map[string]any{"train_s.tail": map[string]int{
		"percentile": t.Percentile, "rank": t.Rank, "samples": t.N}})
	return res, nil
}

func trainTimes(samples []outcome) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.seconds
	}
	return xs
}

// endToEndMetrics reduces the timed trainings to the end-to-end metrics:
// medians per training, users delivered per timed second, and the
// process's peak resident set.
func endToEndMetrics(setup float64, samples []outcome) map[string]metric {
	var objs, accs, ups, downs, allocs []float64
	var users int
	var busy float64
	for _, s := range samples {
		objs = append(objs, s.objective)
		accs = append(accs, s.accuracy())
		ups = append(ups, s.uplink)
		downs = append(downs, s.downlink)
		allocs = append(allocs, s.allocMB)
		users += s.users
		busy += s.seconds
	}
	times := trainTimes(samples)
	t, _ := tailPercentile(times)
	values := map[string]float64{
		"setup_s":                 setup,
		"train_s.p50":             median(times),
		"train_s.tail":            t.Value,
		"users_per_s":             float64(users) / busy,
		"objective":               median(objs),
		"accuracy":                median(accs),
		"uplink_bytes_per_user":   median(ups),
		"downlink_bytes_per_user": median(downs),
		"alloc_mb_per_train":      median(allocs),
		"max_rss_mb":              maxRSSMB(),
	}
	return withUnits(values, endToEnd)
}

// traced alternates untraced and traced trainings of the same inputs for
// the run's seconds (swapping which goes first each pair), then replays the
// per-call costs. It fills res as far as it gets.
func traced(o options, w workload, in inputs, tr *tracer, check func(int, outcome) error, res *result) error {
	var plain, withObs []float64
	var outs []outcome
	perTrain := map[string][]float64{}
	begin := time.Now()
	for p := 0; time.Since(begin) < time.Duration(o.seconds)*time.Second || len(withObs) == 0; p++ {
		k := p % in.size()
		for j := 0; j < 2; j++ {
			observed := (p+j)%2 == 1
			i := 2*p + j
			c := callCtx{train: i}
			var reg *obs.Registry
			if observed {
				reg = obs.NewRegistrySized(w.traceCap)
				c = callCtx{reg: reg, tr: tr, train: i, parent: tr.open("training", i, 0)}
				parallel.SetMetrics(reg.PoolMetrics())
			}
			res.Attempted++
			s, err := in.train(k, c)
			parallel.SetMetrics(nil)
			tr.close(c.parent)
			if err == nil {
				err = check(k, s)
			}
			if err != nil {
				res.Failed++
				return fmt.Errorf("training %d (input %d, traced %v): %w", i, k, observed, err)
			}
			if !observed {
				plain = append(plain, s.seconds)
				continue
			}
			withObs = append(withObs, s.seconds)
			outs = append(outs, s)
			counts, err := layerCounts(reg, s, s.seconds)
			if err != nil {
				return err
			}
			for name, v := range counts {
				perTrain[name] = append(perTrain[name], v)
			}
		}
	}
	values := map[string]float64{}
	for name, vs := range perTrain {
		values[name] = median(vs)
	}
	costs, err := replays(in.shape(outs, values))
	if err != nil {
		return err
	}
	for name, v := range costs {
		values[name] = v
	}
	values["obs.overhead_ratio"] = overheadRatio(withObs, plain)
	res.Metrics = withUnits(values, perLayer)
	res.Correct = true
	printTable(res.Metrics, perLayer)
	for name, d := range tr.selfTimes() {
		fmt.Fprintf(os.Stderr, "self time of %-24s %10.3fs summed over its spans\n", name, d.Seconds())
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	return nil
}

// layerCounts reads one traced training's per-layer counts from its result
// and the program's registry.
func layerCounts(reg *obs.Registry, out outcome, trainS float64) (map[string]float64, error) {
	if n := reg.CounterValue(obs.MetricSpansDropped); n > 0 {
		return nil, fmt.Errorf("the program's span ring dropped %d spans; raise the workload's traceCap", n)
	}
	var gram, send, recv time.Duration
	var rounds []float64
	for _, s := range reg.Spans() {
		switch s.Kind {
		case obs.SpanGramBuild:
			gram += s.Dur
		case obs.SpanWireSend:
			send += s.Dur
		case obs.SpanWireRecv:
			recv += s.Dur
		case obs.SpanADMMRound:
			rounds = append(rounds, s.Dur.Seconds())
		}
	}
	info := out.info
	solves := float64(reg.CounterValue(obs.MetricQPSolves))
	iters := float64(reg.CounterValue(obs.MetricQPIterations))
	m := map[string]float64{
		"core.cccp_rounds":         float64(info.CCCPIterations),
		"core.cut_rounds":          float64(reg.CounterValue(obs.MetricCutRounds)),
		"core.constraints":         float64(reg.CounterValue(obs.MetricConstraintsAdded)),
		"qp.solves":                solves,
		"qp.iterations":            iters,
		"qp.solve_busy_s":          reg.Histogram(obs.MetricQPSolveSeconds, "").Sum(),
		"qp.gram_busy_s":           gram.Seconds(),
		"admm.rounds":              float64(info.ADMMIterations),
		"admm.round_s.p50":         median(rounds),
		"shard.agg_link_bytes":     float64(out.aggLinkBytes),
		"protocol.devices_dropped": float64(reg.CounterValue(obs.MetricProtocolDroppedDevices)),
		"transport.messages": float64(reg.CounterValue(obs.MetricMessagesSent) +
			reg.CounterValue(obs.MetricMessagesReceived)),
		"transport.send_busy_s": send.Seconds(),
		"transport.recv_busy_s": recv.Seconds(),
		"transport.retries":     float64(reg.CounterValue(obs.MetricTransportRetries)),
		"parallel.busy_share": reg.Histogram(obs.MetricParallelWorkerBusySeconds, "").Sum() /
			(trainS * float64(runtime.GOMAXPROCS(0))),
		"qp.iters_per_solve":           0,
		"protocol.us_per_device_round": 0,
	}
	if solves > 0 {
		m["qp.iters_per_solve"] = iters / solves
	}
	if out.devices > 0 && info.ADMMIterations > 0 {
		m["protocol.us_per_device_round"] = trainS * 1e6 / float64(out.devices*info.ADMMIterations)
	}
	return m, nil
}

func withUnits(values map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// printTable writes the metrics for a reader, each per-layer metric with
// the end-to-end metric it should move.
func printTable(ms map[string]metric, defs []metricDef) {
	for _, d := range defs {
		m := ms[d.name]
		fmt.Fprintf(os.Stderr, "%-30s %14.6g %-6s %s\n", d.name, m.Value, m.Unit, d.moves)
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printJSON writes v as one line on standard output; v holds only plain
// values, which always marshal.
func printJSON(v any) {
	line, _ := json.Marshal(v)
	fmt.Println(string(line))
}

// printEnv records the environment on standard output.
func printEnv(o options) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"heldout":    o.heldout,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit("."),
		"source":     sourceDigest("."),
	}
	printJSON(map[string]any{"env": env})
}
