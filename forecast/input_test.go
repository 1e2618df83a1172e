package forecast

import (
	"context"
	"errors"
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

// TestFitRejectsMalformedData: a dataset with mismatched lengths, a
// row of the wrong width, or a non-finite input or target is refused
// with ErrData before any store is built — never a panic inside the
// matcher, and never a fitted system that answers NaN with confidence.
func TestFitRejectsMalformedData(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(ds *Dataset){
		"NaN target":      func(ds *Dataset) { ds.Targets[7] = nan },
		"-Inf target":     func(ds *Dataset) { ds.Targets[0] = -inf },
		"NaN input":       func(ds *Dataset) { ds.Inputs[3] = []float64{0.1, nan, 0.2, 0.3} },
		"+Inf input":      func(ds *Dataset) { ds.Inputs[9] = []float64{0.1, 0.2, 0.3, inf} },
		"narrow row":      func(ds *Dataset) { ds.Inputs[5] = []float64{0.1, 0.2} },
		"wide row":        func(ds *Dataset) { ds.Inputs[5] = []float64{0.1, 0.2, 0.3, 0.4, 0.5} },
		"too few inputs":  func(ds *Dataset) { ds.Inputs = ds.Inputs[:10] },
		"too few targets": func(ds *Dataset) { ds.Targets = ds.Targets[:10] },
	}
	for name, corrupt := range cases {
		for _, sharded := range []bool{false, true} {
			ds := sineDataset(t, 200, 4)
			ds.Inputs = append([][]float64(nil), ds.Inputs...)
			ds.Targets = append([]float64(nil), ds.Targets...)
			corrupt(ds)
			opts := []Option{WithPopulation(20), WithGenerations(300), WithSeed(3)}
			if sharded {
				opts = append(opts, WithEngine(2))
			}
			f, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Fit(context.Background(), ds); !errors.Is(err, ErrData) {
				t.Errorf("%s (engine %v): Fit = %v, want ErrData", name, sharded, err)
			}
			if v, ok := f.Predict([]float64{0.1, 0.2, 0.3, 0.4}); ok {
				t.Errorf("%s (engine %v): Predict after a refused Fit = (%v, true)", name, sharded, v)
			}
		}
	}
}

// TestAppendRejectsMalformedRows: a streaming chunk with the same
// faults is refused with ErrData before the store changes.
func TestAppendRejectsMalformedRows(t *testing.T) {
	ds := sineDataset(t, 200, 4)
	f, err := New(WithPopulation(20), WithGenerations(300), WithSeed(3), WithEngine(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Fit(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	before := f.Data().Len()
	nan, inf := math.NaN(), math.Inf(1)
	good := []float64{0.1, 0.2, 0.3, 0.4}
	cases := map[string]struct {
		inputs  [][]float64
		targets []float64
	}{
		"NaN input":       {[][]float64{good, {0.1, nan, 0.3, 0.4}}, []float64{0.5, 0.5}},
		"+Inf input":      {[][]float64{{inf, 0.2, 0.3, 0.4}}, []float64{0.5}},
		"NaN target":      {[][]float64{good, good}, []float64{0.5, nan}},
		"-Inf target":     {[][]float64{good}, []float64{-inf}},
		"narrow row":      {[][]float64{good, {0.1, 0.2}}, []float64{0.5, 0.5}},
		"length mismatch": {[][]float64{good, good}, []float64{0.5}},
	}
	for name, c := range cases {
		if err := f.Append(context.Background(), c.inputs, c.targets); !errors.Is(err, ErrData) {
			t.Errorf("%s: Append = %v, want ErrData", name, err)
		}
		if got := f.Data().Len(); got != before {
			t.Errorf("%s: store holds %d rows after a refused Append, want %d", name, got, before)
		}
	}
}
