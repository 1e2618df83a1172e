package core

import (
	"context"

	"bytes"
	"math"
	"testing"

	"repro/internal/series"
)

func matchIndexDataset(t *testing.T, n, d int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.3*math.Sin(2*math.Pi*float64(i)/13)
	}
	ds, err := series.Window(series.New("idx", v), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMatchIndexAllWildcard(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{Wild(), Wild(), Wild()})
	got := ev.MatchIndices(r)
	if len(got) != ds.Len() {
		t.Fatalf("all-wildcard rule matched %d of %d patterns", len(got), ds.Len())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestMatchIndexEmptyInterval(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	// Interval entirely above the data range: nothing matches, and the
	// result must be nil (not an empty non-nil slice) to stay
	// interchangeable with the linear scan.
	r := NewRule([]Interval{NewInterval(10, 11), Wild(), Wild()})
	if got := ev.MatchIndices(r); got != nil {
		t.Fatalf("impossible rule matched %v", got)
	}
}

func TestMatchIndexInvertedInterval(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ix := NewMatchIndex(ds)
	// Lo > Hi constructed directly (ReadJSON can also produce this):
	// Contains is false everywhere, so the engine must return nil —
	// and not panic on an inverted candidate range.
	r := NewRule([]Interval{{Lo: 0.5, Hi: -0.5}, Wild(), Wild()})
	if got, ok := ix.LookupInto(nil, r, new(MatchScratch)); !ok || got != nil {
		t.Fatalf("inverted interval: LookupInto = %v, %v; want nil, true", got, ok)
	}
}

// NaN inputs have no total order, so the sorted index cannot answer
// for them; the engine must declare itself degenerate and defer to
// the scan, whose Rule.Match semantics treat NaN as inside every
// interval.
func TestMatchIndexNaNFallsBackToScan(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ds.Inputs[7] = []float64{math.NaN(), 0.1, 0.1}
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{NewInterval(-0.5, 0.5), Wild(), Wild()})
	indexed := ev.MatchIndices(r)
	naive := ev.MatchIndicesScan(r)
	if len(indexed) != len(naive) {
		t.Fatalf("indexed matched %d, naive %d", len(indexed), len(naive))
	}
	for k := range indexed {
		if indexed[k] != naive[k] {
			t.Fatalf("indexed[%d] = %d, naive %d", k, indexed[k], naive[k])
		}
	}
	found := false
	for _, i := range indexed {
		if i == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("NaN pattern (matched by Rule.Match) missing from indexed result")
	}
}

// A NaN rule bound is unconstraining under Rule.Match semantics but
// meaningless to binary search; the engine must defer to the scan
// rather than return a spuriously empty match set.
func TestMatchIndexNaNBoundFallsBackToScan(t *testing.T) {
	ds := matchIndexDataset(t, 60, 3)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{{Lo: math.NaN(), Hi: 0.5}, Wild(), Wild()})
	indexed := ev.MatchIndices(r)
	naive := ev.MatchIndicesScan(r)
	if len(indexed) == 0 || len(indexed) != len(naive) {
		t.Fatalf("indexed matched %d, naive %d", len(indexed), len(naive))
	}
	for k := range indexed {
		if indexed[k] != naive[k] {
			t.Fatalf("indexed[%d] = %d, naive %d", k, indexed[k], naive[k])
		}
	}
}

// A shared prebuilt index must not change results: the same MultiRun
// with and without a caller-built IndexBackend serializes to
// identical bytes.
func TestSharedIndexIdenticalResults(t *testing.T) {
	ds := matchIndexDataset(t, 300, 4)
	run := func(shared Backend) []byte {
		base := Default(4)
		base.PopSize = 20
		base.Generations = 150
		base.Seed = 9
		base.Runtime.Backend = shared
		res, err := MultiRun(context.Background(), MultiRunConfig{
			Base:           base,
			CoverageTarget: 2,
			MaxExecutions:  2,
			Parallelism:    2,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.RuleSet.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fresh := run(nil)
	shared := run(NewIndexBackend(ds, 1))
	if !bytes.Equal(fresh, shared) {
		t.Fatal("shared index changed MultiRun results")
	}
}

// An index built over a different dataset must be ignored, not used.
func TestEvaluatorRejectsForeignIndex(t *testing.T) {
	dsA := matchIndexDataset(t, 80, 3)
	dsB := matchIndexDataset(t, 120, 3)
	ev := NewEvaluator(dsA, 1.0, 0, 1e-8, 1, EvalOptions{Backend: NewIndexBackend(dsB, 1)})
	if ev.Backend().Data() != dsA {
		t.Fatal("evaluator kept an index built over a different dataset")
	}
	r := NewRule([]Interval{Wild(), Wild(), Wild()})
	if got := ev.MatchIndices(r); len(got) != dsA.Len() {
		t.Fatalf("matched %d patterns, want %d", len(got), dsA.Len())
	}
}

// The cache must evict rather than grow without bound.
func TestEvalCacheBounded(t *testing.T) {
	c := newEvalCache()
	for i := 0; i < evalCacheLimit+10; i++ {
		key := string(appendCondKey(nil, []Interval{NewInterval(float64(i), float64(i)+1)}))
		c.Put(key, &EvalResult{})
	}
	c.mu.RLock()
	size := len(c.m)
	c.mu.RUnlock()
	if size > evalCacheLimit {
		t.Fatalf("cache holds %d entries, limit %d", size, evalCacheLimit)
	}
}
