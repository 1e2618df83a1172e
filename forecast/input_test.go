package forecast

import (
	"context"
	"math"
	"testing"
)

// TestPredictAbstainsOnBadInput: on a fitted 4-lag model, a pattern of
// the wrong width or with a non-finite value makes every prediction
// verb abstain — no panic, and no confident answer computed from a NaN
// that every rule "matches".
func TestPredictAbstainsOnBadInput(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	f, err := New(WithPopulation(20), WithGenerations(300), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	var good []float64
	for _, p := range ds.Inputs {
		if _, ok := f.Predict(p); ok {
			good = p
			break
		}
	}
	if good == nil {
		t.Fatal("the fitted system covers no training pattern")
	}

	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string][]float64{
		"all NaN":     {nan, nan, nan, nan},
		"one NaN":     {good[0], good[1], nan, good[3]},
		"+Inf":        {good[0], inf, good[2], good[3]},
		"-Inf":        {-inf, good[1], good[2], good[3]},
		"too short":   {0.1},
		"too long":    append(append([]float64(nil), good...), 0.1),
		"empty":       {},
		"nil pattern": nil,
	}
	for name, p := range bad {
		if v, ok := f.Predict(p); ok {
			t.Errorf("Predict(%s) = (%v, true), want abstention", name, v)
		}
	}

	mixed := &Dataset{
		Inputs:  [][]float64{good, bad["all NaN"], bad["too short"], bad["+Inf"]},
		Targets: []float64{0, 0, 0, 0},
		D:       4,
		Horizon: 1,
	}
	_, mask := f.PredictDataset(mixed)
	if want := []bool{true, false, false, false}; len(mask) != len(want) ||
		mask[0] != want[0] || mask[1] || mask[2] || mask[3] {
		t.Errorf("PredictDataset mask = %v, want %v", mask, want)
	}

	for name, recent := range map[string][]float64{
		"trailing NaN": {good[0], good[1], good[2], nan},
		"trailing Inf": {nan, good[0], good[1], good[2], inf},
		"too short":    {0.1},
	} {
		if out, n := f.Forecast(recent, 3); n != 0 || len(out) != 0 {
			t.Errorf("Forecast(%s) predicted %d steps %v, want none", name, n, out)
		}
	}
}
