//go:build amd64

package linalg

// accumRow adds one observation row's contribution to the upper
// triangle of the normal equations (see accum_generic.go for the
// reference implementation and the exact contract). The amd64 version
// runs the per-gene daxpy two lanes at a time with SSE2 MULPD/ADDPD —
// packed single-rounding multiplies and adds, never FMA — so every
// accumulator cell receives exactly the operations of the scalar
// loop, in the same order. SSE2 is in the amd64 baseline, so no
// feature detection is needed.
//
//go:noescape
func accumRow(xtx, xty, row []float64, yi float64, p int)

// accumRow4 is four accumRow calls on rows[0..3] and y[0..3] fused
// into one pass over the triangle, with the same block contract as
// the generic version: bit-identical cells, and false with nothing
// written when any gene of the block is zero. Each cell is loaded and
// stored once per block instead of once per row, which is what makes
// the kernel compute-bound rather than bound by loads and stores.
//
//go:noescape
func accumRow4(xtx, xty []float64, rows [][]float64, y []float64, p int) bool
