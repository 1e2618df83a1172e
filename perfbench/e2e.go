package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/forecast"
	"repro/internal/metrics"
)

const (
	// setupRounds is how many times a run sets the workload up; setup_s
	// is the median.
	setupRounds = 9
	// warmupGenerations is the length of the warm-up Fit each setup
	// ends with, which fills pools and faults in the heap before timing.
	warmupGenerations = 200
	// predictTime is how long a round times Predict, shared equally by
	// its evolutions, in windows of predictWindow: enough calls for a
	// 99th percentile, and short enough that a window falls between two
	// of the host's slow spells. Every fitted system gets at least
	// predictMinWindows windows.
	predictTime       = 2 * time.Second
	predictWindow     = 20 * time.Millisecond
	predictMinWindows = 20
)

// tally counts operations and the ones that failed: an error from
// Fit, Append or Predict, or an output check that did not hold.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.notes = append(t.notes, err.Error())
		return false
	}
	return true
}

// check records the outcome of one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	t.op(err)
}

// digestCheck holds the rule-system digest of every operation by
// evolution seed and position: a repeat must yield the same one.
type digestCheck map[string]string

func (d digestCheck) see(t *tally, key string, f *forecast.Forecaster) {
	got, err := digest(f.RuleSet())
	if !t.op(err) {
		return
	}
	want, seen := d[key]
	if !seen {
		d[key] = got
		return
	}
	t.check(got == want, "%s: rule system %s differs from the first run's %s", key, got[:12], want[:12])
}

// e2eResult is what an untraced run measured.
type e2eResult struct {
	tally
	setup []float64 // seconds per setup
	fit   []float64 // seconds per Fit (the initial Fit on a stream)
	refit []float64 // seconds per Append plus refit (streams)
	alloc []float64 // MB allocated per training operation
	// Predict latency of each fitted system: its fastest window's
	// median and 99th percentile (see predictTimer).
	predictP50, predictP99 []float64
	predictCalls           int
	nmse, cov              float64
	rssMB                  float64
}

// setup makes the workload's inputs, starts its servers and warms up,
// setupRounds times, keeping the last environment.
func setup(ctx context.Context, w workload, seed int64, res *e2eResult) (*env, error) {
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = newEnv(ctx, w, seed); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, e); err != nil {
			e.close()
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	return e, nil
}

// warmUp runs one short Fit of the workload's configuration.
func warmUp(ctx context.Context, e *env) error {
	f, err := e.newForecaster(e.seeds[0], min(warmupGenerations, e.w.generations))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Fit(ctx, fresh(e.ins[0].train)); err != nil {
		return fmt.Errorf("warm-up fit: %w", err)
	}
	return nil
}

// timed runs op and returns its wall time and heap bytes allocated.
func timed(op func() error) (secs, allocMB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = op()
	secs = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return secs, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// runE2E measures a workload untraced, as one closed-loop client: a
// round fits every evolution seed in turn (on a stream, the initial
// Fit and then every Append with its refit), and rounds repeat while
// another fits in the time. After each evolution it times Predict on
// the systems fitted so far, so the Predict samples spread over the
// run like the training ones. Last it scores the validation set.
func runE2E(ctx context.Context, w workload, seed int64, dur time.Duration) (*e2eResult, error) {
	res := &e2eResult{}
	e, err := setup(ctx, w, seed, res)
	if err != nil {
		return nil, err
	}
	defer e.close()

	digests := digestCheck{}
	pt := newPredictTimer(e.ins)
	predictFor := predictTime / time.Duration(len(e.seeds))
	start := time.Now()
	var round time.Duration
	rounds := 0
	for rounds == 0 || time.Since(start)+round < dur {
		t0 := time.Now()
		for i := range e.seeds {
			if f := res.train(ctx, e, i, digests, true); f != nil {
				pt.systems[i] = f
			}
			pt.run(predictFor)
		}
		round = time.Since(t0)
		rounds++
	}
	pt.fill(predictMinWindows)
	res.predictP50, res.predictP99 = pt.fastest()
	res.predictCalls = pt.calls
	res.attempted += pt.calls
	res.failed += pt.bad
	if pt.bad > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d Predict calls returned a non-finite value", pt.bad))
	}
	if rounds == 1 {
		// Every operation must be reproducible: repeat the first
		// evolution once, untimed.
		res.train(ctx, e, 0, digests, false)
	}
	if w.remote {
		// Distribution must not change what is learned: the same
		// configuration in process yields the same rule system.
		local := *e
		local.w.remote = false
		res.train(ctx, &local, 0, digests, false)
	}
	res.score(pt.systems, e.ins)
	res.rssMB, err = peakRSSMB()
	return res, err
}

// train runs evolution i's operations — a Fit, then on a stream
// every Append with its refit — checks each rule system
// against the one the same operation gave before, and returns the
// fitted Forecaster, closed; nil if an operation failed. A timed run
// keeps the times and allocations.
func (res *e2eResult) train(ctx context.Context, e *env, i int, d digestCheck, timedRun bool) *forecast.Forecaster {
	seed, in := e.seeds[i], e.ins[i]
	f, err := e.newForecaster(seed, e.w.generations)
	if !res.op(err) {
		return nil
	}
	defer f.Close()
	key := fmt.Sprintf("seed %d", seed)
	secs, mb, err := timed(func() error { return f.Fit(ctx, fresh(in.train)) })
	if !res.op(err) {
		return nil
	}
	d.see(&res.tally, key+" fit", f)
	if timedRun {
		res.fit = append(res.fit, secs)
		if !e.w.stream() {
			res.alloc = append(res.alloc, mb)
		}
	}
	for k, c := range in.chunks {
		secs, mb, err := timed(func() error { return f.Append(ctx, c.inputs, c.targets) })
		if !res.op(err) {
			return nil
		}
		d.see(&res.tally, fmt.Sprintf("%s refit %d", key, k), f)
		if timedRun {
			res.refit = append(res.refit, secs)
			res.alloc = append(res.alloc, mb)
		}
	}
	return f
}

// predictTimer times Predict call by call on the fitted systems, one
// per evolution, in windows of about predictWindow made of whole
// passes over each one's validation patterns, and checks that every answer
// is finite. It visits the systems fitted so far in turn, a window
// each, so every system's windows spread over the run. A system's
// reading is its fastest window's median and 99th percentile: this
// host's speed drifts by a third from one window to the next, and the
// fastest window is the least disturbed reading of the system.
type predictTimer struct {
	vals       []*forecast.Dataset    // validation patterns by evolution
	systems    []*forecast.Forecaster // by evolution; nil until fitted
	p50, p99   []float64              // fastest window of each system
	windows    []int                  // windows timed on each system
	next       int                    // the system the next window visits first
	lat        []float64              // the current window's samples
	calls, bad int
}

func newPredictTimer(ins []*inputs) *predictTimer {
	n := len(ins)
	p := &predictTimer{
		vals:    make([]*forecast.Dataset, n),
		systems: make([]*forecast.Forecaster, n),
		p50:     make([]float64, n),
		p99:     make([]float64, n),
		windows: make([]int, n),
	}
	for i, in := range ins {
		p.vals[i] = in.val
		p.p50[i], p.p99[i] = math.Inf(1), math.Inf(1)
	}
	return p
}

// run times windows for about d, one at least, visiting the fitted
// systems in turn. A collection first, so garbage the training left
// does not land in the timings.
func (p *predictTimer) run(d time.Duration) {
	runtime.GC()
	for start := time.Now(); ; {
		i := p.visit()
		if i < 0 {
			return
		}
		p.window(i)
		if time.Since(start) >= d {
			return
		}
	}
}

// fill times windows, visiting the fitted systems in turn, until each
// has had at least n.
func (p *predictTimer) fill(n int) {
	runtime.GC()
	for more := true; more; {
		more = false
		for i, f := range p.systems {
			if f != nil && p.windows[i] < n {
				p.window(i)
				more = true
			}
		}
	}
}

// visit returns the next fitted system in turn, or -1 if there is none.
func (p *predictTimer) visit() int {
	for k := range p.systems {
		i := (p.next + k) % len(p.systems)
		if p.systems[i] != nil {
			p.next = i + 1
			return i
		}
	}
	return -1
}

// window times one window on system i.
func (p *predictTimer) window(i int) {
	f := p.systems[i]
	lat := p.lat[:0]
	for w0 := time.Now(); len(lat) == 0 || time.Since(w0) < predictWindow; {
		for _, x := range p.vals[i].Inputs {
			t0 := time.Now()
			v, ok := f.Predict(x)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
				p.bad++
			}
		}
	}
	p.lat = lat
	p.calls += len(lat)
	p.windows[i]++
	p.p50[i] = math.Min(p.p50[i], quantile(lat, 0.50))
	p.p99[i] = math.Min(p.p99[i], quantile(lat, 0.99))
}

// fastest returns the readings of the systems that were timed.
func (p *predictTimer) fastest() (p50, p99 []float64) {
	for i, n := range p.windows {
		if n > 0 {
			p50 = append(p50, p.p50[i])
			p99 = append(p99, p.p99[i])
		}
	}
	return p50, p99
}

// score sets val_nmse and val_coverage: the medians over the fitted
// systems.
func (res *e2eResult) score(fitted []*forecast.Forecaster, ins []*inputs) {
	var nmses, covs []float64
	for i, f := range fitted {
		if f == nil {
			continue
		}
		// A system that abstains on every pattern has no NMSE; that is
		// a property of what it learned, not a failed operation.
		val := ins[i].val
		pred, mask := f.PredictDataset(val)
		if nmse, cov, err := metrics.MaskedNMSE(pred, val.Targets, mask); err == nil {
			nmses = append(nmses, nmse)
			covs = append(covs, cov)
		}
	}
	res.nmse, res.cov = median(nmses), median(covs)
}
