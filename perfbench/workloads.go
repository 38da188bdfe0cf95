package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"plos/internal/core"
	"plos/internal/har"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/protocol"
	"plos/internal/rng"
	"plos/internal/transport"
)

// Workload shapes. The HAR cohort is the reduced Fig. 5 cohort; the shard
// population is the 10k-device plane of BENCH_7.json with pinned budgets.
const (
	harUsers     = 10
	harPerClass  = 20 // 40 samples per user
	harDim       = 120
	harProviders = 5
	harRate      = 0.25
	// harPoolSize cohorts, each from its own sub-seed, are about as many as
	// a run trains, so a run's medians span many cohorts and vary little by
	// seed: training time varies by about 25% from cohort to cohort.
	harPoolSize = 128

	shardDevices  = 10000
	shardCount    = 2
	shardSamples  = 4
	shardPoolSize = 4 // distinct device populations per run
)

// workload generates a run's inputs from its seed.
type workload struct {
	name string
	// traceCap sizes the program's span ring for one traced training, with
	// headroom over the spans one training records.
	traceCap int
	generate func(seed int64) (inputs, error)
}

// The synchronous wire protocol on HAR cohorts (one coordinator, ten
// devices) is not a workload: it keeps both cores busy for only about 30
// trainings a run, and on a shared 2-vCPU host its run medians spread past
// the 25% bound. shard-10k carries the wire layers instead.
var workloads = []workload{
	{name: "central-har", traceCap: 1 << 12, generate: newHARPool},
	{name: "shard-10k", traceCap: 1 << 19, generate: newShardPool},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is a run's pool of generated training inputs.
type inputs interface {
	size() int
	// train runs one training on pool entry k and checks its output.
	train(k int, c callCtx) (outcome, error)
	// shape sizes the per-call replays from the traced trainings and the
	// medians of their per-layer counts.
	shape(traced []outcome, layer map[string]float64) replayShape
}

// callCtx carries the observation attached to one training: the program's
// registry (nil when untraced) and the benchmark's own spans.
type callCtx struct {
	reg    *obs.Registry
	tr     *tracer
	train  int
	parent int
}

// outcome is what one training delivered.
type outcome struct {
	// seconds and allocMB are the wall time and heap allocation of the
	// program calls alone, without input checks and scoring.
	seconds, allocMB float64
	objective        float64
	// correct and samples count personalized predictions over every
	// user's ground truth.
	correct, samples int
	users            int
	devices          int // devices on the wire; 0 for in-process training
	// uplink and downlink are the bytes per user of the training.
	uplink, downlink float64
	info             core.TrainInfo
	aggLinkBytes     int64
}

// timeCall runs fn between two heap snapshots and records its wall time
// and allocation in o.
func timeCall(o *outcome, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	o.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
}

func (o outcome) accuracy() float64 { return float64(o.correct) / float64(o.samples) }

// sameResult reports whether two trainings of one input agree bit for bit
// on the objective and the byte counts.
func sameResult(a, b outcome) bool {
	return math.Float64bits(a.objective) == math.Float64bits(b.objective) &&
		a.uplink == b.uplink && a.downlink == b.downlink && a.aggLinkBytes == b.aggLinkBytes
}

// score counts user t's correct personalized predictions on its samples and
// fails when the user has no model.
func score(o *outcome, t int, w mat.Vector, x *mat.Matrix, truth []float64) error {
	if len(w) != x.Cols {
		return fmt.Errorf("user %d has no model", t)
	}
	for i := 0; i < x.Rows; i++ {
		pred := -1.0
		if w.Dot(x.Row(i)) >= 0 {
			pred = 1
		}
		if pred == truth[i] {
			o.correct++
		}
		o.samples++
	}
	return nil
}

// checkObjective fails on a non-finite objective.
func checkObjective(obj float64) error {
	if !finite(obj) {
		return fmt.Errorf("objective is %v", obj)
	}
	return nil
}

// withBias appends the constant feature, as the HAR experiments do.
func withBias(x *mat.Matrix) *mat.Matrix {
	out := mat.NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), x.Row(i))
		out.Set(i, x.Cols, 1)
	}
	return out
}

// ---------------------------------------------------------------------
// central-har: HAR cohorts trained in process.

type cohort struct {
	seed   int64
	users  []core.UserData
	truths [][]float64
}

type harPool struct {
	seed    int64
	cohorts []cohort
}

func newHARPool(seed int64) (inputs, error) {
	p := &harPool{seed: seed}
	root := rng.New(seed)
	for k := 0; k < harPoolSize; k++ {
		c, err := newCohort(root.SplitN("cohort", k).Int63())
		if err != nil {
			return nil, err
		}
		p.cohorts = append(p.cohorts, c)
	}
	return p, nil
}

// newCohort generates one HAR cohort: harProviders of the users label a
// stratified harRate share of their samples, which move to the front (the
// labeled-prefix convention of core.UserData).
func newCohort(seed int64) (cohort, error) {
	g := rng.New(seed)
	ds, err := har.Generate(har.Config{Users: harUsers, PerClass: harPerClass, Dim: harDim}, g.Split("har"))
	if err != nil {
		return cohort{}, fmt.Errorf("generate cohort: %w", err)
	}
	provider := make(map[int]bool)
	for _, t := range g.Split("providers").SampleWithoutReplacement(harUsers, harProviders) {
		provider[t] = true
	}
	c := cohort{seed: seed}
	for t, u := range ds.Users {
		x := withBias(u.X)
		order, labeled := stratified(u.Truth, provider[t], g.SplitN("labels", t))
		ux := mat.NewMatrix(x.Rows, x.Cols)
		truth := make([]float64, x.Rows)
		for row, src := range order {
			copy(ux.Row(row), x.Row(src))
			truth[row] = u.Truth[src]
		}
		c.users = append(c.users, core.UserData{X: ux, Y: truth[:labeled]})
		c.truths = append(c.truths, truth)
	}
	return c, nil
}

// stratified orders a user's samples with its labeled ones first: half of
// round(harRate·m) from each class for a provider, none otherwise.
func stratified(truth []float64, provider bool, g *rng.RNG) (order []int, labeled int) {
	var pos, neg []int
	for i, y := range truth {
		if y > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if !provider {
		return append(pos, neg...), 0
	}
	g.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	g.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	want := int(math.Round(harRate * float64(len(truth))))
	np := min(want/2, len(pos))
	nn := min(want-np, len(neg))
	order = append(order, pos[:np]...)
	order = append(order, neg[:nn]...)
	order = append(order, pos[np:]...)
	order = append(order, neg[nn:]...)
	return order, np + nn
}

func (p *harPool) size() int { return len(p.cohorts) }

func (p *harPool) train(k int, c callCtx) (outcome, error) {
	co := p.cohorts[k]
	cfg := core.Config{Seed: co.seed, Obs: c.reg}
	var (
		model *core.Model
		o     outcome
		err   error
	)
	id := c.tr.open("train", c.train, c.parent)
	sp := c.tr.open("core.TrainCentralized", c.train, id)
	timeCall(&o, func() { model, o.info, err = core.TrainCentralized(co.users, cfg) })
	c.tr.close(sp)
	c.tr.close(id)
	// Centralized training moves every user's samples and labels to the
	// trainer and its personalized model back, as float64.
	for _, u := range co.users {
		o.uplink += float64(8 * (len(u.X.Data) + len(u.Y)))
		o.downlink += float64(8 * u.X.Cols)
	}
	o.uplink /= float64(len(co.users))
	o.downlink /= float64(len(co.users))
	if err != nil {
		return o, err
	}
	o.objective = o.info.Objective
	o.users = len(co.users)
	sp = c.tr.open("score", c.train, c.parent)
	defer c.tr.close(sp)
	for t, u := range co.users {
		if err := score(&o, t, model.W[t], u.X, co.truths[t]); err != nil {
			return o, err
		}
	}
	return o, checkObjective(o.objective)
}

// checkDropped fails when any device was dropped; first is the global index
// of the first slot.
func checkDropped(dropped []bool, first int) error {
	for i, d := range dropped {
		if d {
			return fmt.Errorf("device %d was dropped", first+i)
		}
	}
	return nil
}

func (p *harPool) shape(traced []outcome, _ map[string]float64) replayShape {
	co := p.cohorts[0]
	sh := replayShape{
		seed: p.seed, data: co.users, totalUsers: harUsers, dim: harDim + 1,
		reducers: harUsers, cfg: core.Config{Seed: co.seed},
	}
	// The restricted dual at its final size, spread evenly over the users.
	var final []float64
	for _, o := range traced {
		final = append(final, float64(o.info.Constraints))
	}
	total := max(int(median(final)), harUsers)
	for t := range co.users {
		n := total / harUsers
		if t < total%harUsers {
			n++
		}
		sh.perUser = append(sh.perUser, n)
	}
	return sh
}

// deviceSet is the mean working set a device grows per CCCP round: the
// constraints added over devices × rounds, at least one.
func deviceSet(layer map[string]float64, devices int) int {
	rounds := max(layer["core.cccp_rounds"], 1)
	return max(int(math.Round(layer["core.constraints"]/(float64(devices)*rounds))), 1)
}

// ---------------------------------------------------------------------
// shard-10k: one aggregator and shardCount shards in process.

type population struct {
	seed    int64
	devices []core.UserData
	truths  [][]float64
}

type shardPool struct {
	seed int64
	pops []population
}

func newShardPool(seed int64) (inputs, error) {
	p := &shardPool{seed: seed}
	root := rng.New(seed)
	for k := 0; k < shardPoolSize; k++ {
		p.pops = append(p.pops, newPopulation(root.SplitN("population", k).Int63()))
	}
	return p, nil
}

// newPopulation generates the BENCH_7.json device population: four 2-D
// samples per device in two rotated clusters, the first two labeled, with
// the constant feature appended.
func newPopulation(seed int64) population {
	pop := population{seed: seed}
	root := rng.New(seed)
	for d := 0; d < shardDevices; d++ {
		r := root.SplitN("device", d)
		rot := rng.Rotation2D(0.05 * float64(d%7))
		x := mat.NewMatrix(shardSamples, 3)
		truth := make([]float64, shardSamples)
		for i := 0; i < shardSamples; i++ {
			cls := 1.0
			if i%2 == 1 {
				cls = -1
			}
			pt := rot.MulVec(mat.Vector{cls*4 + r.Norm(), cls*4 + r.Norm()})
			x.Set(i, 0, pt[0])
			x.Set(i, 1, pt[1])
			x.Set(i, 2, 1)
			truth[i] = cls
		}
		pop.devices = append(pop.devices, core.UserData{X: x, Y: truth[:2]})
		pop.truths = append(pop.truths, truth)
	}
	return pop
}

// shardConfig pins the iteration budgets so the workload measures the
// serving plane, not solver depth.
func shardConfig(seed int64) (core.Config, core.DistConfig) {
	return core.Config{Lambda: 100, Cl: 1, Cu: 0.2, Seed: seed,
			MaxCCCPIter: 2, MaxCutIter: 2, QPMaxIter: 30},
		core.DistConfig{Rho: 1, EpsAbs: 1e-3, MaxADMMIter: 2}
}

func (p *shardPool) size() int { return len(p.pops) }

func (p *shardPool) train(k int, c callCtx) (outcome, error) {
	pop := p.pops[k]
	var o outcome
	id := c.tr.open("train", c.train, c.parent)
	results, err := trainSharded(&o, pop, c, id)
	c.tr.close(id)
	if err != nil {
		return o, err
	}
	sp := c.tr.open("score", c.train, c.parent)
	defer c.tr.close(sp)
	var stats []transport.Stats
	for s, res := range results {
		first := s * (shardDevices / shardCount)
		if err := checkDropped(res.Dropped, first); err != nil {
			return o, err
		}
		for i, w := range res.Model.W {
			if err := score(&o, first+i, w, pop.devices[first+i].X, pop.truths[first+i]); err != nil {
				return o, err
			}
		}
		stats = append(stats, res.PerUser...)
	}
	o.users, o.devices = len(stats), len(stats)
	if o.users != shardDevices {
		return o, fmt.Errorf("%d devices finished, want %d", o.users, shardDevices)
	}
	o.uplink, o.downlink = perUserBytes(stats)
	return o, checkObjective(o.objective)
}

// trainSharded runs the aggregator and its shards in process: the
// aggregator links are net.Pipe pairs framed by the TCP codec, the device
// links in-process pipes. Shard s serves the contiguous device range
// [s·n/S, (s+1)·n/S).
func trainSharded(o *outcome, pop population, c callCtx, parent int) ([]*protocol.ServerResult, error) {
	cfg, dist := shardConfig(pop.seed)
	cfg.Obs = c.reg
	results := make([]*protocol.ServerResult, shardCount)
	shardErrs := make([]error, shardCount)
	devErrs := make([]error, shardDevices)
	var res *protocol.AggResult
	var err error
	timeCall(o, func() {
		res, err = runPlane(pop, cfg, dist, c, parent, results, shardErrs, devErrs)
	})
	if err != nil {
		return nil, fmt.Errorf("aggregator: %w", err)
	}
	for s, serr := range shardErrs {
		if serr != nil {
			return nil, fmt.Errorf("shard %d: %w", s, serr)
		}
	}
	for d, derr := range devErrs {
		if derr != nil {
			return nil, fmt.Errorf("device %d: %w", d, derr)
		}
	}
	if res.Users != shardDevices {
		return nil, fmt.Errorf("aggregator saw %d devices, want %d", res.Users, shardDevices)
	}
	o.info = res.Info
	o.objective = res.Info.Objective
	o.aggLinkBytes = res.Total.BytesSent + res.Total.BytesReceived
	return results, nil
}

// runPlane starts the shards and their devices, runs the aggregator, and
// returns once every goroutine it started has finished.
func runPlane(pop population, cfg core.Config, dist core.DistConfig, c callCtx, parent int,
	results []*protocol.ServerResult, shardErrs, devErrs []error) (*protocol.AggResult, error) {
	per := shardDevices / shardCount
	aggConns := make([]transport.Conn, shardCount)
	var wg sync.WaitGroup
	for s := 0; s < shardCount; s++ {
		a, b := net.Pipe()
		aggConns[s] = transport.NewTCPConn(a)
		shardSide := transport.NewTCPConn(b)
		conns := make([]transport.Conn, per)
		for i := range conns {
			sc, dc := transport.Pipe()
			conns[i] = transport.Observe(sc, c.reg, s*per+i)
			d := s*per + i
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := c.tr.open("protocol.RunClient", c.train, parent)
				_, devErrs[d] = protocol.RunClient(dc, pop.devices[d],
					protocol.ClientOptions{Seed: int64(d), Obs: c.reg})
				c.tr.close(sp)
			}()
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp := c.tr.open("protocol.RunShard", c.train, parent)
			results[s], shardErrs[s] = protocol.RunShard(shardSide, conns,
				protocol.ShardConfig{Shard: s, Core: core.Config{Seed: pop.seed, Obs: c.reg}})
			c.tr.close(sp)
			for _, conn := range conns {
				_ = conn.Close()
			}
			_ = shardSide.Close()
		}(s)
	}
	sp := c.tr.open("protocol.RunAggregator", c.train, parent)
	res, err := protocol.RunAggregator(aggConns, protocol.AggConfig{Core: cfg, Dist: dist})
	c.tr.close(sp)
	for _, conn := range aggConns {
		_ = conn.Close()
	}
	wg.Wait()
	return res, err
}

func (p *shardPool) shape(_ []outcome, layer map[string]float64) replayShape {
	cfg, _ := shardConfig(p.pops[0].seed)
	return replayShape{
		seed: p.seed, data: p.pops[0].devices[:1], totalUsers: shardDevices, dim: 3,
		perUser:  []int{deviceSet(layer, shardDevices)},
		reducers: shardDevices / shardCount, cfg: cfg,
	}
}
