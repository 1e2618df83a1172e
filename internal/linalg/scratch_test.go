package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// fitsBitIdentical compares two fits field by field at the bit level
// (so NaN == NaN and -0 != +0).
func fitsBitIdentical(a, b *LinearFit) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Coef) != len(b.Coef) ||
		math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) {
		return false
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return true
}

// Property: FitAffineScratch is FitAffine bit for bit — same
// coefficients, same intercept, same error behaviour — across random
// geometries, exact zeros (the accumulator's skip path), huge and
// denormal magnitudes, rank-deficient designs (the non-PD Gaussian
// fallback), and with a single dirty scratch reused across all of it.
func TestPropertyFitScratchBitIdentical(t *testing.T) {
	var sc FitScratch // deliberately shared and dirty across trials
	g := func(seed int64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(40)
		d := 1 + src.Intn(8)
		return checkFitEquivalence(src, n, d, &sc)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func checkFitEquivalence(src *rng.Source, n, d int, sc *FitScratch) bool {
	xs, y := randomRows(src, n, d, 0.15)
	return fitEquivalent(src, xs, y, sc)
}

// randomRows draws n observation rows of width d (exact zeros with
// probability zeroP, some huge and denormal magnitudes, and with
// probability 0.2 a duplicated column) and their targets.
func randomRows(src *rng.Source, n, d int, zeroP float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	y := make([]float64, n)
	dup := src.Bool(0.2) // rank-deficient: duplicate one column
	for i := range xs {
		row := make([]float64, d)
		for j := range row {
			switch {
			case src.Bool(zeroP):
				row[j] = 0 // exact zero: the skip path
			case src.Bool(0.05):
				row[j] = src.Uniform(-1, 1) * 1e150
			case src.Bool(0.05):
				row[j] = src.Uniform(-1, 1) * 1e-300
			default:
				row[j] = src.Uniform(-3, 3)
			}
		}
		if dup && d > 1 {
			row[d-1] = row[0]
		}
		xs[i] = row
		y[i] = src.Uniform(-3, 3)
	}
	return xs, y
}

// fitEquivalent draws a ridge and reports whether FitAffineScratch
// through sc agrees with FitAffine bit for bit, errors included.
func fitEquivalent(src *rng.Source, xs [][]float64, y []float64, sc *FitScratch) bool {
	ridge := []float64{0, 0, 1e-8, 1e-3}[src.Intn(4)]

	want, errW := FitAffine(xs, y, ridge)
	got, errS := FitAffineScratch(xs, y, ridge, sc)
	if (errW == nil) != (errS == nil) {
		return false
	}
	if errW != nil {
		return true
	}
	return fitsBitIdentical(got, want)
}

// Property: the 4-row block path of FitAffineScratch is FitAffine bit
// for bit. The draws above reach it rarely (at d=8 a block is free of
// zero genes ~0.5% of the time), so these cases build dense blocks on
// purpose: wide rows, every n mod 4 tail, a single zero gene or a
// single non-finite value inside an otherwise dense block, and
// windowed rows aliasing one backing series, as series.Window builds
// them. One dirty scratch is shared by every case.
func TestPropertyFitScratchBlockedBitIdentical(t *testing.T) {
	var sc FitScratch
	cases := []struct {
		name string
		gen  func(src *rng.Source) ([][]float64, []float64)
	}{
		{"dense", func(src *rng.Source) ([][]float64, []float64) {
			// n = 4q + r for every tail r, q = 0 included.
			n := 4*src.Intn(15) + src.Intn(4)
			if n == 0 {
				n = 4
			}
			return randomRows(src, n, 1+src.Intn(24), 0.002)
		}},
		{"zero-gene", func(src *rng.Source) ([][]float64, []float64) {
			xs, y := randomRows(src, 4+src.Intn(40), 1+src.Intn(24), 0)
			row := xs[src.Intn(len(xs)/4*4)]
			row[src.Intn(len(row))] = []float64{0, math.Copysign(0, -1)}[src.Intn(2)]
			return xs, y
		}},
		{"non-finite", func(src *rng.Source) ([][]float64, []float64) {
			xs, y := randomRows(src, 4+src.Intn(40), 1+src.Intn(24), 0)
			row := xs[src.Intn(len(xs)/4*4)]
			row[src.Intn(len(row))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[src.Intn(3)]
			return xs, y
		}},
		{"windowed", func(src *rng.Source) ([][]float64, []float64) {
			n, d := 1+src.Intn(80), 1+src.Intn(24)
			vals := make([]float64, n+d)
			for i := range vals {
				vals[i] = src.Uniform(-3, 3)
			}
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = vals[i : i+d]
			}
			return xs, vals[d:]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := func(seed int64) bool {
				src := rng.New(seed)
				xs, y := c.gen(src)
				return fitEquivalent(src, xs, y, &sc)
			}
			if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: accumRow4 is four accumRow calls, cell for cell at the bit
// level, over dirty accumulators; and it refuses — writing nothing —
// exactly the blocks that hold a zero gene.
func TestPropertyAccumRow4(t *testing.T) {
	g := func(seed int64) bool {
		src := rng.New(seed)
		d := 1 + src.Intn(24)
		p := d + 1
		rows, y := randomRows(src, 4, d, []float64{0, 0.01, 0.1}[src.Intn(3)])
		hasZero := false
		for _, r := range rows {
			for _, v := range r {
				hasZero = hasZero || v == 0
			}
		}
		xtx, xty := make([]float64, p*p), make([]float64, p)
		for i := range xtx {
			xtx[i] = src.Uniform(-10, 10)
		}
		for i := range xty {
			xty[i] = src.Uniform(-10, 10)
		}
		wtx, wty := append([]float64(nil), xtx...), append([]float64(nil), xty...)
		if ok := accumRow4(xtx, xty, rows, y, p); ok == hasZero {
			return false
		}
		if !hasZero {
			for k := range rows {
				accumRow(wtx, wty, rows[k], y[k], p)
			}
		}
		return bitsEqual(xtx, wtx) && bitsEqual(xty, wty)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestFitScratchResultUnaliased pins the escape contract: the returned
// fit owns its storage, so later fits through the same scratch (and
// caller scribbling) must not disturb it.
func TestFitScratchResultUnaliased(t *testing.T) {
	src := rng.New(7)
	var sc FitScratch
	mk := func(shift float64) ([][]float64, []float64) {
		xs := make([][]float64, 12)
		y := make([]float64, 12)
		for i := range xs {
			xs[i] = []float64{src.Uniform(-1, 1) + shift, src.Uniform(-1, 1)}
			y[i] = src.Uniform(-1, 1)
		}
		return xs, y
	}
	xs, y := mk(0)
	first, err := FitAffineScratch(xs, y, 1e-8, &sc)
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Clone()
	for i := 0; i < 10; i++ {
		xs2, y2 := mk(float64(i))
		other, err := FitAffineScratch(xs2, y2, 1e-8, &sc)
		if err != nil {
			t.Fatal(err)
		}
		for j := range other.Coef {
			other.Coef[j] = math.Inf(1) // caller trashes its result
		}
	}
	if !fitsBitIdentical(first, snap) {
		t.Fatalf("earlier fit mutated by later scratch reuse: %+v, want %+v", first, snap)
	}
}

// TestFitScratchErrors pins the error cases against FitAffine's.
func TestFitScratchErrors(t *testing.T) {
	var sc FitScratch
	if _, err := FitAffineScratch(nil, nil, 0, &sc); err == nil {
		t.Fatal("no observations must error")
	}
	if _, err := FitAffineScratch([][]float64{{1, 2}}, []float64{1, 2}, 0, &sc); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := FitAffineScratch([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0, &sc); err == nil {
		t.Fatal("ragged observation must error")
	}
}

// BenchmarkFitAffineScratch is one consequent fit through warm
// scratch on windowed rows aliasing one series, as the evaluator
// gathers them. The fixtures match the benchmark workloads' matched
// sets: D=24 over ~5,660 rows (the mean on venice-fit) and D=4 over
// 932 rows (the whole Mackey-Glass training set). GFLOP/s counts the
// normal-equation accumulation only, rows × p(p+1)/2 multiply-adds.
// The only allocations per op are the returned LinearFit and its Coef.
func BenchmarkFitAffineScratch(b *testing.B) {
	for _, c := range []struct{ d, n int }{{24, 5660}, {4, 932}} {
		b.Run(fmt.Sprintf("D=%d/rows=%d", c.d, c.n), func(b *testing.B) {
			src := rng.New(1)
			vals := make([]float64, c.n+c.d)
			for i := range vals {
				vals[i] = 50*math.Sin(float64(i)/12) + src.Uniform(-5, 5)
			}
			xs := make([][]float64, c.n)
			for i := range xs {
				xs[i] = vals[i : i+c.d]
			}
			y := vals[c.d:]
			var sc FitScratch
			if _, err := FitAffineScratch(xs, y, 1e-8, &sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitAffineScratch(xs, y, 1e-8, &sc); err != nil {
					b.Fatal(err)
				}
			}
			p := float64(c.d + 1)
			flops := 2 * float64(c.n) * p * (p + 1) / 2 * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
