package core

import (
	"bytes"
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/rng"
)

// Property: serialization round-trips arbitrary rule sets — the
// reloaded system predicts identically on random patterns.
func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		d := 1 + src.Intn(6)
		rs := NewRuleSet(d)
		nRules := 1 + src.Intn(8)
		for r := 0; r < nRules; r++ {
			cond := make([]Interval, d)
			for j := range cond {
				if src.Bool(0.2) {
					cond[j] = Wild()
				} else {
					cond[j] = NewInterval(src.Uniform(-5, 5), src.Uniform(-5, 5))
				}
			}
			rule := NewRule(cond)
			rule.Prediction = src.Uniform(-3, 3)
			rule.Matches = src.Intn(100)
			rule.Fitness = src.Uniform(0, 10)
			if src.Bool(0.8) {
				coef := make([]float64, d)
				for j := range coef {
					coef[j] = src.Uniform(-2, 2)
				}
				rule.Fit = &linalg.LinearFit{Coef: coef, Intercept: src.Uniform(-1, 1)}
				rule.Error = src.Uniform(0, 2)
			}
			rs.Add(rule)
		}

		var buf bytes.Buffer
		if err := rs.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			pattern := make([]float64, d)
			for j := range pattern {
				pattern[j] = src.Uniform(-6, 6)
			}
			v1, ok1 := rs.Predict(pattern)
			v2, ok2 := got.Predict(pattern)
			if ok1 != ok2 {
				return false
			}
			if ok1 && math.Abs(v1-v2) > 1e-12*(1+math.Abs(v1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's fitness is monotone — holding error fixed,
// more matches can only raise it; holding matches fixed, lower error
// can only raise it (within the valid gate).
func TestPropertyFitnessMonotone(t *testing.T) {
	const emax = 1.0
	fitness := func(matches int, errVal float64) float64 {
		if matches > 1 && errVal < emax {
			return float64(matches)*emax - errVal
		}
		return 0 // f_min
	}
	f := func(m1Raw, m2Raw uint8, e1Raw, e2Raw float64) bool {
		m1 := 2 + int(m1Raw)%100
		m2 := m1 + 1 + int(m2Raw)%50
		e1 := math.Mod(math.Abs(e1Raw), emax*0.999)
		e2 := e1 * math.Mod(math.Abs(e2Raw), 1) // e2 <= e1
		if math.IsNaN(e1) || math.IsNaN(e2) {
			return true
		}
		// More matches, same error → fitter.
		if fitness(m2, e1) <= fitness(m1, e1) {
			return false
		}
		// Same matches, lower-or-equal error → at least as fit.
		return fitness(m1, e2) >= fitness(m1, e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the indexed match engine is extensionally equal to the
// naive linear scan — identical indices, identical order — for random
// datasets, dimensions, and rules (wildcards, inverted draws, empty
// and unselective intervals included).
func TestPropertyIndexedMatchEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		d := 1 + src.Intn(5)
		ds := datasetFromValues(v, d, 1)
		if ds == nil {
			return true
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		for trial := 0; trial < 10; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				switch {
				case src.Bool(0.25):
					cond[j] = Wild()
				case src.Bool(0.15):
					// Deliberately unselective: spans the whole data range
					// so the engine exercises its scan fallback.
					cond[j] = NewInterval(-3, 3)
				case src.Bool(0.1):
					// Genuinely inverted bounds (Lo > Hi), bypassing
					// NewInterval's swap — reachable via ReadJSON or
					// direct construction; must match nothing, not panic.
					cond[j] = Interval{Lo: 1, Hi: -1}
				default:
					cond[j] = NewInterval(src.Uniform(-2.5, 2.5), src.Uniform(-2.5, 2.5))
				}
			}
			r := NewRule(cond)
			indexed := ev.MatchIndices(r)
			naive := ev.MatchIndicesScan(r)
			if len(indexed) != len(naive) {
				return false
			}
			for k := range indexed {
				if indexed[k] != naive[k] {
					return false
				}
			}
			if len(indexed) == 0 && indexed != nil {
				return false // empty result must be nil, like the scan's
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache hit reproduces the uncached evaluation
// bit-for-bit — evaluating a fresh rule with the same conditional
// part yields identical Matches, Error, Fitness, Prediction and
// consequent, and the consequent storage is never shared.
func TestPropertyEvalCacheBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 30 + src.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		ds := datasetFromValues(v, 3, 1)
		if ds == nil {
			return true
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		cond := make([]Interval, 3)
		for j := range cond {
			if src.Bool(0.3) {
				cond[j] = Wild()
			} else {
				cond[j] = NewInterval(src.Uniform(-2, 2), src.Uniform(-2, 2))
			}
		}
		a := NewRule(cond)
		ev.Evaluate(context.Background(), a) // miss: computes and seeds the cache
		b := NewRule(append([]Interval(nil), cond...))
		ev.Evaluate(context.Background(), b) // hit: must replay a's result exactly
		if a.Matches != b.Matches || a.Fitness != b.Fitness {
			return false
		}
		if a.Error != b.Error && !(math.IsInf(a.Error, 1) && math.IsInf(b.Error, 1)) {
			return false
		}
		if (a.Fit == nil) != (b.Fit == nil) {
			return false
		}
		if a.Fit != nil {
			if a.Fit == b.Fit || a.Prediction != b.Prediction {
				return false
			}
			if a.Fit.Intercept != b.Fit.Intercept {
				return false
			}
			for j := range a.Fit.Coef {
				if a.Fit.Coef[j] != b.Fit.Coef[j] {
					return false
				}
			}
		}
		hits, _ := ev.CacheStats()
		return hits >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation on a dataset always yields internally
// consistent rules: Matches >= 0; valid fitness implies Matches > 1
// and Error < EMAX; rules with matches carry a consequent.
func TestPropertyEvaluateConsistency(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		// Random small dataset.
		n := 30 + src.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		ds := datasetFromValues(v, 3, 1)
		if ds == nil {
			return true
		}
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		// Random rule.
		cond := make([]Interval, 3)
		for j := range cond {
			if src.Bool(0.3) {
				cond[j] = Wild()
			} else {
				cond[j] = NewInterval(src.Uniform(-2, 2), src.Uniform(-2, 2))
			}
		}
		r := NewRule(cond)
		ev.Evaluate(context.Background(), r)
		if r.Matches < 0 {
			return false
		}
		if r.Matches > 0 && !r.Fitted() {
			return false
		}
		if r.Fitness > -5 { // above the floor: the gate must hold
			if r.Matches <= 1 || r.Error >= 0.8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the columnar match kernel with the float32 prefilter is
// extensionally equal to the naive scan under the degenerate inputs
// the prefilter must not mishandle — NaN pattern values (which
// disable the index entirely), NaN gene bounds (unconstraining, and
// unusable for range selection), and magnitudes at the edges of
// float32 (overflow to ±Inf, underflow to 0 in the shadow column).
// Identity is exact: same indices, same order, nil for empty.
func TestPropertyColumnarNaNEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 10 + src.Intn(150)
		withNaN := src.Bool(0.5)
		v := make([]float64, n)
		for i := range v {
			switch {
			case withNaN && src.Bool(0.1):
				v[i] = math.NaN()
			case src.Bool(0.1):
				v[i] = src.Uniform(-2, 2) * 1e308 // ±Inf in float32
			case src.Bool(0.1):
				v[i] = src.Uniform(-2, 2) * 1e-310 // 0 in float32
			default:
				v[i] = src.Uniform(-2, 2)
			}
		}
		d := 1 + src.Intn(5)
		ds := datasetFromValues(v, d, 1)
		if ds == nil {
			return true
		}
		ix := NewMatchIndex(ds)
		ev := NewEvaluator(ds, 0.8, -5, 1e-8, 1, EvalOptions{})
		sc := GetMatchScratch()
		defer PutMatchScratch(sc)
		var reuse []int
		for trial := 0; trial < 12; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				switch {
				case src.Bool(0.2):
					cond[j] = Wild()
				case src.Bool(0.1):
					cond[j] = Interval{Lo: math.NaN(), Hi: src.Uniform(-2, 2)}
				case src.Bool(0.1):
					cond[j] = Interval{Lo: src.Uniform(-2, 2), Hi: math.NaN()}
				case src.Bool(0.1):
					// Bounds beyond float32 range: widening must keep
					// every candidate (the prefilter may only discard
					// what the exact pass would).
					cond[j] = NewInterval(src.Uniform(-2, 2)*1e308, src.Uniform(-2, 2)*1e308)
				default:
					cond[j] = NewInterval(src.Uniform(-2.5, 2.5), src.Uniform(-2.5, 2.5))
				}
			}
			r := NewRule(cond)
			naive := ev.MatchIndicesScan(r)
			indexed := ev.MatchIndices(r)
			if !intSlicesIdentical(indexed, naive) {
				return false
			}
			// The scratch variants must agree while reusing dirty
			// buffers across rules (sc and reuse carry state between
			// trials on purpose). Into appends to caller storage, so
			// only values are compared, not nil-ness.
			if got, ok := ix.LookupInto(reuse[:0], r, sc); ok {
				if !intSlicesEqual(got, naive) {
					return false
				}
				reuse = got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: CollectWithinInto over a dirty pooled scratch reproduces
// the linear scan exactly for every non-wildcard gene of a rule on
// clean data (the per-gene path the shard walk drives). A wildcard
// gene lies outside GeneRange's domain, so its run is no matched set;
// there the dirty scratch must still reproduce a fresh one.
func TestPropertyCollectWithinScratchEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		n := 20 + src.Intn(100)
		v := make([]float64, n)
		for i := range v {
			v[i] = src.Uniform(-2, 2)
		}
		d := 2 + src.Intn(4)
		ds := datasetFromValues(v, d, 1)
		if ds == nil {
			return true
		}
		ix := NewMatchIndex(ds)
		ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
		sc := GetMatchScratch()
		defer PutMatchScratch(sc)
		var reuse []int
		for trial := 0; trial < 10; trial++ {
			cond := make([]Interval, d)
			for j := range cond {
				if src.Bool(0.25) {
					cond[j] = Wild()
				} else {
					cond[j] = NewInterval(src.Uniform(-2.5, 2.5), src.Uniform(-2.5, 2.5))
				}
			}
			r := NewRule(cond)
			for j := 0; j < d; j++ {
				lo, hi, ok := ix.GeneRange(j, r.Cond[j])
				if !ok {
					continue
				}
				var want []int
				if r.Cond[j].Wildcard {
					want = ix.CollectWithinInto(nil, j, lo, hi, r, new(MatchScratch))
				} else {
					want = ev.MatchIndicesScan(r)
				}
				got := ix.CollectWithinInto(reuse[:0], j, lo, hi, r, sc)
				if !intSlicesEqual(got, want) {
					return false
				}
				reuse = got
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
