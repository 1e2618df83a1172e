package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/forecast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/remote"
	"repro/internal/rng"
	"repro/internal/series"
)

// store is what the traced run builds in place of the facade's: the
// in-process engine or the remote cluster.
type store interface {
	core.Store
	Cache() *engine.SharedCache
}

// tracedResult is what a traced run measured.
type tracedResult struct {
	tally
	w   workload
	rec *recorder

	gens, replacements int
	hits, misses       int
	rules              int
	madds              float64   // rows × p(p+1)/2 summed over replayed regressions
	writes             []float64 // ns of store writes before each training operation
	wire               wireCount
	wireBytes          int64 // during the step loops
	wireWrites         int64
	predictNs          []float64
	gcPct              float64
	untraced, traced   time.Duration
}

// runTraced runs the workload once through the facade untraced, then
// rebuilds the same configuration from core's public API and runs it
// again, timing each layer's public calls from outside. The traced
// run must reproduce the untraced one's FitStats and rule systems.
func runTraced(ctx context.Context, w workload, seed int64) (*tracedResult, error) {
	e, err := newEnv(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := warmUp(ctx, e); err != nil {
		return nil, err
	}
	r := &tracedResult{w: w, rec: newRecorder()}

	want, err := r.untracedOps(ctx, e)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rs, err := r.tracedOps(ctx, e, want)
	if err != nil {
		return nil, err
	}
	r.traced = time.Since(t0) - r.replayTime()
	if rs != nil {
		r.rules = rs.Len()
		r.measurePredict(rs, e.ins[0].val)
	}
	return r, nil
}

// outcome is what one training operation (a Fit, or an Append and
// its refit) produced.
type outcome struct {
	stats  forecast.FitStats
	digest string
}

// untracedOps runs the workload's operations through the facade and
// returns their outcomes.
func (r *tracedResult) untracedOps(ctx context.Context, e *env) ([]outcome, error) {
	f, err := e.newForecaster(e.seeds[0], e.w.generations)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cpu0 := readCPU()
	t0 := time.Now()
	if !r.op(f.Fit(ctx, fresh(e.ins[0].train))) {
		return nil, fmt.Errorf("untraced fit: %s", r.notes[len(r.notes)-1])
	}
	systems := []*forecast.RuleSet{f.RuleSet()}
	stats := []forecast.FitStats{f.Stats()}
	for _, c := range e.ins[0].chunks {
		if !r.op(f.Append(ctx, c.inputs, c.targets)) {
			return nil, fmt.Errorf("untraced append: %s", r.notes[len(r.notes)-1])
		}
		systems = append(systems, f.RuleSet())
		stats = append(stats, f.Stats())
	}
	r.untraced = time.Since(t0)
	r.gcPct = gcPct(cpu0, readCPU())
	out := make([]outcome, len(systems))
	for i, rs := range systems {
		d, err := digest(rs)
		if err != nil {
			return nil, err
		}
		out[i] = outcome{stats: stats[i], digest: d}
	}
	return out, nil
}

// tracedOps replays the facade's operations on a store built here:
// build, window and compact, then one execution per operation, with
// an Append, Window and Compact before each refit — the order
// Forecaster.Fit and Forecaster.Append use.
func (r *tracedResult) tracedOps(ctx context.Context, e *env, want []outcome) (*core.RuleSet, error) {
	st, err := r.buildStore(ctx, e)
	if err != nil {
		return nil, err
	}
	if c, ok := st.(*remote.Cluster); ok {
		defer c.Close()
	}
	var rs *core.RuleSet
	for k, wk := range want {
		w0 := r.rec.now()
		if k > 0 {
			c := e.ins[0].chunks[k-1]
			id := r.rec.begin(spanStoreAppend)
			err := st.Append(c.inputs, c.targets)
			r.rec.end(id)
			if !r.op(err) {
				return nil, nil
			}
		}
		if e.w.window > 0 {
			id := r.rec.begin(spanStoreWindow)
			st.Window(e.w.window)
			r.rec.end(id)
		}
		id := r.rec.begin(spanStoreCompact)
		st.Compact()
		r.rec.end(id)
		r.writes = append(r.writes, float64(r.rec.now()-w0))

		var stats forecast.FitStats
		rs, stats, err = r.execute(ctx, e, st)
		if !r.op(err) {
			return nil, nil
		}
		got, err := digest(rs)
		if !r.op(err) {
			return nil, nil
		}
		r.check(stats.Generations == wk.stats.Generations && stats.BestFitness == wk.stats.BestFitness,
			"operation %d: traced run gave %d generations and best fitness %v, untraced %d and %v",
			k, stats.Generations, stats.BestFitness, wk.stats.Generations, wk.stats.BestFitness)
		r.check(got == wk.digest, "operation %d: traced rule system %s differs from untraced %s", k, got[:12], wk.digest[:12])
	}
	return rs, nil
}

// buildStore builds the store the facade would, on a fresh copy of
// the training data: engine.New, or remote.NewCluster over counting
// TCP dialers followed by Cluster.Load.
func (r *tracedResult) buildStore(ctx context.Context, e *env) (store, error) {
	ds := fresh(e.ins[0].train)
	id := r.rec.begin(spanStoreBuild)
	defer r.rec.end(id)
	if !e.w.remote {
		return engine.New(ds, engine.Options{Shards: shards}), nil
	}
	dialers := make([]remote.Dialer, len(e.srv.addrs))
	for i, a := range e.srv.addrs {
		dialers[i] = countingDialer{Dialer: remote.TCP(a), n: &r.wire}
	}
	cl, err := remote.NewCluster(dialers, remote.Options{})
	if err != nil {
		return nil, err
	}
	if err := cl.Load(ctx, ds); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// execute runs one execution the way core.MultiRun runs the facade's
// single one, timing NewExecution and every Step. After each step,
// outside its timed interval, it replays the step's regression with
// linalg.FitAffineScratch and, over a cluster, the step's match on an
// in-process engine holding the same rows.
func (r *tracedResult) execute(ctx context.Context, e *env, st store) (*core.RuleSet, forecast.FitStats, error) {
	data := st.Data()
	var cache core.EvalCache
	if e.w.stream() {
		cache = st.Cache()
	}
	cfg := execConfig(e.w, e.seeds[0], data, wrapBackend(st, r.rec), cache)
	var replica *engine.Engine
	if e.w.remote {
		replica = engine.New(fresh(data), engine.Options{Shards: shards})
	}
	var hits0, misses0 int
	if cfg.Runtime.Cache != nil {
		hits0, misses0 = cfg.Runtime.Cache.Stats()
	}

	id := r.rec.begin(spanInit)
	ex, err := core.NewExecution(ctx, cfg, data)
	r.rec.end(id)
	if err != nil {
		return nil, forecast.FitStats{}, err
	}
	var (
		sc       linalg.FitScratch
		xs       [][]float64
		ys       []float64
		p        = float64(data.D + 1)
		mismatch int
	)
	w0, b0 := r.wire.writes.Load(), r.wire.bytes.Load()
	for g := 0; g < cfg.Generations; g++ {
		if err := ex.Eval.BackendErr(); err != nil {
			return nil, forecast.FitStats{}, err
		}
		step := r.rec.begin(spanStep)
		ex.Step(ctx)
		r.rec.end(step)

		rule, rows := r.rec.takeMatch()
		if rule == nil {
			continue // served from the evaluation cache
		}
		if replica != nil {
			s := r.rec.now()
			got := replica.MatchIndices(rule)
			r.rec.replay(spanReplayMatch, step, s, len(got))
			if !slices.Equal(got, rows) {
				mismatch++
			}
		}
		if len(rows) < 2 {
			continue // the evaluator fits no regression below two rows
		}
		xs, ys = xs[:0], ys[:0]
		for _, i := range rows {
			xs = append(xs, data.Inputs[i])
			ys = append(ys, data.Targets[i])
		}
		s := r.rec.now()
		_, err := linalg.FitAffineScratch(xs, ys, cfg.Ridge, &sc)
		r.rec.replay(spanReplayFit, step, s, len(rows))
		if err == nil {
			r.madds += float64(len(rows)) * p * (p + 1) / 2
		}
	}
	r.wireWrites += r.wire.writes.Load() - w0
	r.wireBytes += r.wire.bytes.Load() - b0
	if replica != nil {
		r.check(mismatch == 0, "%d cluster matches differ from the in-process engine's", mismatch)
	}

	hits, misses := ex.Eval.CacheStats()
	r.hits += hits - hits0
	r.misses += misses - misses0
	r.gens += ex.Stats.Generations
	r.replacements += ex.Stats.Replacements

	// What core.MultiRun and the facade report for one execution.
	stats := forecast.FitStats{Executions: 1, Generations: ex.Stats.Generations}
	for _, rule := range ex.Pop {
		stats.BestFitness = math.Max(stats.BestFitness, rule.Fitness)
	}
	rs := core.NewRuleSet(data.D)
	rs.Add(ex.ValidRules()...)
	return rs, stats, nil
}

// execConfig is the configuration core.MultiRun gives the facade's
// single execution at an evolution seed.
func execConfig(w workload, seed int64, data *series.Dataset, backend core.Backend, cache core.EvalCache) core.Config {
	cfg := core.Default(data.D)
	cfg.Horizon = data.Horizon
	cfg.PopSize = population
	cfg.Generations = w.generations
	cfg.Seed = rng.New(seed).SplitN(1)[0].Seed() // as core.MultiRun derives an execution's seed
	cfg.Runtime.Workers = 1                      // as core.MultiRun sets it
	cfg.Runtime.Backend = backend
	cfg.Runtime.Cache = cache
	return cfg
}

// measurePredict times core's RuleSet.Predict call by call, in 40
// passes over the validation patterns.
func (r *tracedResult) measurePredict(rs *core.RuleSet, val *series.Dataset) {
	for p := 0; p < 40; p++ {
		for _, x := range val.Inputs {
			t0 := time.Now()
			rs.Predict(x)
			r.predictNs = append(r.predictNs, float64(time.Since(t0).Nanoseconds()))
		}
	}
}

// replayTime is the time spent replaying, outside the timed steps.
func (r *tracedResult) replayTime() time.Duration {
	var ns int64
	for _, s := range r.rec.snapshot() {
		if s.Name == spanReplayFit || s.Name == spanReplayMatch {
			ns += s.dur()
		}
	}
	return time.Duration(ns)
}

// metrics are the per-layer metrics. Every reported time is measured
// on every workload; shares and counts of a layer a workload bypasses
// are 0. Names starting with '#' are printed only: they time
// operations some workloads never make.
func (r *tracedResult) metrics() []metric {
	spans := r.rec.snapshot()
	// Time each step's children and replays took, by step span id.
	var (
		matchIn   = make([]int64, len(spans))
		fitReplay = make([]int64, len(spans))
		byName    = map[string][]float64{}
		rows      []float64
	)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		switch s.Name {
		case spanMatch:
			if s.Parent >= 0 && spans[s.Parent].Name == spanStep {
				matchIn[s.Parent] += s.dur()
				rows = append(rows, float64(s.Rows))
			}
		case spanReplayFit:
			fitReplay[s.Parent] += s.dur()
		}
	}
	var self []float64
	var stepNs, matchNs, fitNs, selfNs float64
	for _, s := range spans {
		if s.Name != spanStep {
			continue
		}
		d := s.dur()
		self = append(self, float64(d-matchIn[s.ID]-fitReplay[s.ID]))
		selfNs += float64(d - matchIn[s.ID] - fitReplay[s.ID])
		stepNs += float64(d)
		matchNs += float64(matchIn[s.ID])
		fitNs += float64(fitReplay[s.ID])
	}
	us := func(name string) []float64 { return scale(byName[name], 1e-3) }
	ms := func(name string) float64 { return median(scale(byName[name], 1e-6)) }

	// The store's match call is the engine's in process; over a
	// cluster it is the round trip, and the engine's part is what the
	// in-process replica took.
	call := us(spanMatch)
	engineMatch, engineNs := call, matchNs
	var rpc []float64
	var rpcNs, loadMs float64
	if r.w.remote {
		rpc, rpcNs = call, matchNs
		engineMatch = us(spanReplayMatch)
		engineNs = sum(byName[spanReplayMatch])
		loadMs = ms(spanStoreBuild)
	}
	gens := float64(r.gens)
	return []metric{
		{name: "core.step_us_p50", unit: "us", value: quantile(us(spanStep), 0.5), n: len(byName[spanStep])},
		{name: "core.step_us_p99", unit: "us", value: quantile(us(spanStep), 0.99), n: len(byName[spanStep])},
		{name: "core.self_us_p50", unit: "us", value: median(scale(self, 1e-3)), n: len(self)},
		{name: "core.self_share", unit: "fraction", value: ratio(selfNs, stepNs)},
		{name: "core.init_ms", unit: "ms", value: ms(spanInit), n: len(byName[spanInit])},
		{name: "core.replace_ratio", unit: "fraction", value: ratio(float64(r.replacements), gens)},
		{name: "core.cache_hit_ratio", unit: "fraction", value: ratio(float64(r.hits), float64(r.hits+r.misses))},
		{name: "core.predict_ns", unit: "ns", value: median(r.predictNs), n: len(r.predictNs)},
		{name: "core.rules", unit: "count", value: float64(r.rules)},
		{name: "store.call_us_p50", unit: "us", value: quantile(call, 0.5), n: len(call)},
		{name: "store.call_us_p99", unit: "us", value: quantile(call, 0.99), n: len(call)},
		{name: "store.load_ms", unit: "ms", value: ms(spanStoreBuild), n: len(byName[spanStoreBuild])},
		{name: "store.write_ms", unit: "ms", value: median(scale(r.writes, 1e-6)), n: len(r.writes)},
		{name: "engine.match_us_p50", unit: "us", value: quantile(engineMatch, 0.5), n: len(engineMatch)},
		{name: "engine.match_us_p99", unit: "us", value: quantile(engineMatch, 0.99), n: len(engineMatch)},
		{name: "engine.match_share", unit: "fraction", value: ratio(engineNs, stepNs)},
		{name: "engine.matched_rows_mean", unit: "rows", value: mean(rows), n: len(rows)},
		{name: "store.batch_ms", unit: "ms", value: ms(spanBatch), n: len(byName[spanBatch])},
		{name: "#engine.append_ms", unit: "ms", value: ms(spanStoreAppend), n: len(byName[spanStoreAppend])},
		{name: "#engine.window_ms", unit: "ms", value: ms(spanStoreWindow), n: len(byName[spanStoreWindow])},
		{name: "#engine.compact_ms", unit: "ms", value: ms(spanStoreCompact), n: len(byName[spanStoreCompact])},
		{name: "linalg.fit_us_p50", unit: "us", value: median(us(spanReplayFit)), n: len(byName[spanReplayFit])},
		{name: "linalg.share", unit: "fraction", value: ratio(fitNs, stepNs)},
		{name: "linalg.madds_per_step", unit: "count", value: ratio(r.madds, gens)},
		{name: "linalg.gflops_computed", unit: "GFLOP/s", value: ratio(2*r.madds, fitNs)},
		{name: "#remote.rpc_us_p50", unit: "us", value: quantile(rpc, 0.5), n: len(rpc)},
		{name: "#remote.rpc_us_p99", unit: "us", value: quantile(rpc, 0.99), n: len(rpc)},
		{name: "#remote.load_ms", unit: "ms", value: loadMs},
		{name: "remote.share", unit: "fraction", value: ratio(rpcNs, stepNs)},
		{name: "remote.bytes_per_gen", unit: "B", value: ratio(float64(r.wireBytes), gens)},
		{name: "remote.writes_per_gen", unit: "count", value: ratio(float64(r.wireWrites), gens)},
		{name: "runtime.gc_cpu_pct", unit: "%", value: r.gcPct},
		{name: "trace_overhead_pct", unit: "%", value: 100 * ratio(float64(r.traced-r.untraced), float64(r.untraced))},
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
