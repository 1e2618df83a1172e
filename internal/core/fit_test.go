package core

import (
	"context"

	"math"
	"testing"

	"repro/internal/series"
)

// linearDataset builds a dataset from the series x_t = 0.5*t so every
// target is an exact linear function of the window.
func linearDataset(t *testing.T, n, d, tau int) *series.Dataset {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 * float64(i)
	}
	ds, err := series.Window(series.New("lin", v), d, tau)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func allMatchRule(d int) *Rule {
	cond := make([]Interval, d)
	for i := range cond {
		cond[i] = NewInterval(-1e12, 1e12)
	}
	return NewRule(cond)
}

func TestEvaluateLinearSeriesPerfectRule(t *testing.T) {
	ds := linearDataset(t, 100, 3, 1)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := allMatchRule(3)
	ev.Evaluate(context.Background(), r)
	if r.Matches != ds.Len() {
		t.Fatalf("Matches = %d, want %d", r.Matches, ds.Len())
	}
	// Linear series ⇒ regression reproduces targets exactly.
	if r.Error > 1e-6 {
		t.Fatalf("Error = %v on a perfectly linear series", r.Error)
	}
	wantFitness := float64(r.Matches)*1.0 - r.Error
	if math.Abs(r.Fitness-wantFitness) > 1e-9 {
		t.Fatalf("Fitness = %v, want %v", r.Fitness, wantFitness)
	}
	// The consequent predicts a held-out pattern correctly:
	// window (100,100.5,101) → target 101.5.
	got := r.Output([]float64{100, 100.5, 101})
	if math.Abs(got-101.5) > 1e-4 {
		t.Fatalf("extrapolated output %v, want 101.5", got)
	}
}

func TestEvaluateFitnessGateEMax(t *testing.T) {
	// A noisy dataset with a tiny EMAX forces the floor branch.
	v := []float64{0, 5, -3, 8, -1, 7, 2, 9, -4, 6, 1, 5, -2, 8, 0, 7}
	ds, err := series.Window(series.New("noise", v), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds, 1e-9, -123, 1e-8, 1, EvalOptions{})
	r := allMatchRule(2)
	ev.Evaluate(context.Background(), r)
	if r.Fitness != -123 {
		t.Fatalf("fitness gate failed: fitness %v, want floor -123", r.Fitness)
	}
}

func TestEvaluateNoMatches(t *testing.T) {
	ds := linearDataset(t, 50, 2, 1)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	r := NewRule([]Interval{NewInterval(1e6, 2e6), NewInterval(1e6, 2e6)})
	r.Prediction = 42 // prior must survive
	ev.Evaluate(context.Background(), r)
	if r.Matches != 0 || r.Fitness != 0 || r.Fit != nil {
		t.Fatalf("no-match rule: %+v", r)
	}
	if !math.IsInf(r.Error, 1) {
		t.Fatalf("no-match rule error = %v, want +Inf", r.Error)
	}
	if r.Prediction != 42 {
		t.Fatal("no-match rule lost its prior prediction")
	}
}

func TestEvaluateSingleMatchGetsFloor(t *testing.T) {
	ds := linearDataset(t, 50, 2, 1)
	ev := NewEvaluator(ds, 1.0, -7, 1e-8, 1, EvalOptions{})
	// Exactly one pattern has input (0, 0.5): the first.
	r := NewRule([]Interval{NewInterval(-0.1, 0.1), NewInterval(0.4, 0.6)})
	ev.Evaluate(context.Background(), r)
	if r.Matches != 1 {
		t.Fatalf("Matches = %d, want 1", r.Matches)
	}
	if r.Fitness != -7 {
		t.Fatalf("single-match fitness %v, want floor (paper's NR>1 gate)", r.Fitness)
	}
	// But the rule still predicts (constant consequent).
	if !r.Fitted() {
		t.Fatal("single-match rule should still carry a consequent")
	}
	// The matched pattern is (x_0,x_1)=(0,0.5) with target x_2 = 1.0.
	if got := r.Output([]float64{0, 0.5}); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("single-match output %v, want the matched target 1.0", got)
	}
}

func TestMatchIndicesSubsetSemantics(t *testing.T) {
	ds := linearDataset(t, 30, 2, 1)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	// Patterns with first input in [2,4]: indices 4..8 (x_i = 0.5 i).
	r := NewRule([]Interval{NewInterval(2, 4), Wild()})
	idx := ev.MatchIndices(r)
	want := []int{4, 5, 6, 7, 8}
	if len(idx) != len(want) {
		t.Fatalf("MatchIndices = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("MatchIndices = %v, want %v", idx, want)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Big enough to cross the parallel threshold.
	ds := linearDataset(t, 9000, 4, 1)
	serial := NewEvaluator(ds, 1.0, 0, 1e-8, 1, EvalOptions{})
	par := NewEvaluator(ds, 1.0, 0, 1e-8, 4, EvalOptions{})
	r := NewRule([]Interval{NewInterval(100, 2000), Wild(), Wild(), NewInterval(0, 4000)})
	a := serial.MatchIndices(r)
	b := par.MatchIndices(r)
	if len(a) != len(b) {
		t.Fatalf("serial %d matches, parallel %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
	r1, r2 := allMatchRule(4), allMatchRule(4)
	serial.Evaluate(context.Background(), r1)
	par.Evaluate(context.Background(), r2)
	if r1.Fitness != r2.Fitness || r1.Error != r2.Error || r1.Matches != r2.Matches {
		t.Fatalf("parallel evaluate differs: %+v vs %+v", r1, r2)
	}
}

func TestEvaluateAll(t *testing.T) {
	ds := linearDataset(t, 200, 3, 1)
	ev := NewEvaluator(ds, 1.0, 0, 1e-8, 4, EvalOptions{})
	rules := []*Rule{allMatchRule(3), allMatchRule(3), NewRule([]Interval{NewInterval(1e6, 2e6), Wild(), Wild()})}
	ev.EvaluateAll(context.Background(), rules)
	if rules[0].Fitness != rules[1].Fitness {
		t.Fatal("identical rules got different fitness")
	}
	if rules[2].Matches != 0 {
		t.Fatal("unsatisfiable rule matched")
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	ds := linearDataset(t, 20, 2, 1)
	ev := NewEvaluator(ds, 2.5, 0, 1e-8, 1, EvalOptions{})
	if ev.EMax() != 2.5 {
		t.Fatalf("EMax = %v", ev.EMax())
	}
	if ev.Data() != ds {
		t.Fatal("Data accessor broken")
	}
}
