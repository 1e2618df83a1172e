package main

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/remote"
)

// small returns a workload shrunk so a test runs in seconds under the
// race detector.
func small(w workload, generations int) workload {
	w.generations = generations
	w.subSeeds = 2
	return w
}

// shrunkStream is venice-stream on 1200 hours: an 800-row window and
// two 180-row Appends.
func shrunkStream(t *testing.T) workload {
	w := small(mustWorkload(t, "venice-stream"), 10)
	w.hours, w.window, w.chunk = 1200, 800, 180
	return w
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// storeOf builds the workload's store over its training data.
func storeOf(t *testing.T, e *env) store {
	t.Helper()
	r := &tracedResult{w: e.w, rec: newRecorder()}
	st, err := r.buildStore(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := st.(*remote.Cluster); ok {
		t.Cleanup(func() { c.Close() })
	}
	return st
}

// evolve runs one execution over backend and returns its rule
// system's digest and statistics.
func evolve(t *testing.T, e *env, st store, backend core.Backend) (string, core.Stats) {
	t.Helper()
	ctx := context.Background()
	ex, err := core.NewExecution(ctx, execConfig(e.w, e.seeds[0], st.Data(), backend, nil), st.Data())
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rs := core.NewRuleSet(st.Data().D)
	rs.Add(ex.ValidRules()...)
	d, err := digest(rs)
	if err != nil {
		t.Fatal(err)
	}
	return d, ex.Stats
}

// TestTimedBackendBitIdentical checks that the timing wrapper leaves
// the evaluator's path alone: it is adopted (same Data pointer), has
// the store's optional interfaces and no others, and an execution
// through it evolves exactly the rules one without it does, over both
// store kinds.
func TestTimedBackendBitIdentical(t *testing.T) {
	for _, name := range []string{"mackeyglass-fit", "mackeyglass-remote"} {
		t.Run(name, func(t *testing.T) {
			e, err := newEnv(context.Background(), small(mustWorkload(t, name), 300), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			st := storeOf(t, e)
			rec := newRecorder()
			wrapped := wrapBackend(st, rec)
			if wrapped.Data() != st.Data() {
				t.Fatal("wrapper changes Data(); the evaluator would not adopt it")
			}
			_, storeCtx := st.(core.BackendCtx)
			_, wrapCtx := wrapped.(core.BackendCtx)
			_, storeHealth := st.(core.BackendHealth)
			_, wrapHealth := wrapped.(core.BackendHealth)
			if storeCtx != wrapCtx || storeHealth != wrapHealth {
				t.Fatalf("optional interfaces: store ctx=%v health=%v, wrapper ctx=%v health=%v",
					storeCtx, storeHealth, wrapCtx, wrapHealth)
			}
			if _, isCluster := st.(*remote.Cluster); isCluster != (storeCtx && storeHealth) {
				t.Fatalf("a cluster implements BackendCtx and BackendHealth and an engine neither; got ctx=%v health=%v", storeCtx, storeHealth)
			}

			plain, plainStats := evolve(t, e, st, st)
			timed, timedStats := evolve(t, e, st, wrapped)
			if plain != timed || plainStats != timedStats {
				t.Fatalf("through the wrapper: %s %+v; without: %s %+v", timed, timedStats, plain, plainStats)
			}
			if len(rec.snapshot()) == 0 {
				t.Fatal("the wrapper recorded no match")
			}
		})
	}
}

// TestTimedBackendConcurrent uses one wrapper from several goroutines
// at once; run it under -race.
func TestTimedBackendConcurrent(t *testing.T) {
	e, err := newEnv(context.Background(), small(mustWorkload(t, "mackeyglass-fit"), 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(fresh(e.ins[0].train), engine.Options{Shards: shards})
	rules := core.InitStratified(eng.Data(), 16)
	want := make([][]int, len(rules))
	for i, r := range rules {
		want[i] = eng.MatchIndices(r)
	}
	wrapped := wrapBackend(eng, newRecorder())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range rules {
				if got := wrapped.MatchIndices(r); len(got) != len(want[i]) {
					t.Errorf("rule %d: %d rows, want %d", i, len(got), len(want[i]))
				}
			}
			for i, got := range wrapped.MatchBatch(context.Background(), rules) {
				if len(got) != len(want[i]) {
					t.Errorf("batch rule %d: %d rows, want %d", i, len(got), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestTracedCountsRepeat is the benchmark's steadiness self-test: the
// counts a traced run reports are properties of the evolution, so two
// traced runs at one seed must report them exactly.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"linalg.madds_per_step", "engine.matched_rows_mean", "remote.bytes_per_gen", "core.replace_ratio"}
	for _, w := range []workload{
		small(mustWorkload(t, "mackeyglass-remote"), 400),
		shrunkStream(t),
	} {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				res, err := runTraced(context.Background(), w, 3)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("traced run failed its checks: %v", res.notes)
				}
				runs[i] = map[string]float64{}
				for _, m := range res.metrics() {
					runs[i][m.name] = m.value
				}
			}
			for _, c := range counts {
				if runs[0][c] != runs[1][c] {
					t.Errorf("%s: %v then %v", c, runs[0][c], runs[1][c])
				}
			}
			if w.remote && runs[0]["remote.bytes_per_gen"] == 0 {
				t.Error("remote.bytes_per_gen is 0 on a remote workload")
			}
		})
	}
}

// TestE2EChecksPass runs a shrunk remote workload end to end: every
// repeated Fit, and the in-process Fit, must give the same rule
// system.
func TestE2EChecksPass(t *testing.T) {
	res, err := runE2E(context.Background(), small(mustWorkload(t, "mackeyglass-remote"), 300), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.notes)
	}
	if len(res.fit) != 2 || res.nmse <= 0 || res.cov <= 0 {
		t.Fatalf("fits %v, nmse %v, coverage %v", res.fit, res.nmse, res.cov)
	}
}
