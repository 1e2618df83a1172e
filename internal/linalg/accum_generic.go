//go:build !amd64

package linalg

// accumRow adds one observation row's contribution to the normal
// equations: for every gene a with row[a] != 0 it accumulates
// xty[a] += row[a]*yi, the upper-triangle run
// xtx[a*p+a : a*p+d] += row[a]*row[a:], and the implicit intercept
// column xtx[a*p+d] += row[a], where d = len(row) and p = d+1. The
// caller contributes the intercept row itself (xty[d] += yi,
// xtx[d*p+d]++). The row[a] == 0 skip mirrors LeastSquares exactly —
// it is part of the bit-for-bit contract, not just a fast path.
// FitAffineScratch runs through it the rows accumRow4 does not take:
// blocks with a zero gene and the n mod 4 tail.
func accumRow(xtx, xty, row []float64, yi float64, p int) {
	d := len(row)
	for a := 0; a < d; a++ {
		ra := row[a]
		if ra == 0 {
			continue
		}
		xty[a] += ra * yi
		dst := xtx[a*p : a*p+d+1]
		ur := row[a:]
		ud := dst[a : a+len(ur)]
		for b, rb := range ur {
			ud[b] += ra * rb
		}
		dst[d] += ra // times the implicit 1
	}
}

// accumRow4 is the block form of four accumRow calls on rows[0..3]
// (all of width d = p-1) and targets y[0..3]: every cell receives the
// same additions in the same row order, so the result is bit-identical
// to the four calls, but each cell is read and written once per block
// rather than once per row. A block with a zero gene in any row is not
// handled here — it returns false with nothing written, and the caller
// runs the four rows through accumRow, whose skip keeps the contract.
func accumRow4(xtx, xty []float64, rows [][]float64, y []float64, p int) bool {
	r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
	for _, r := range [4][]float64{r0, r1, r2, r3} {
		for _, v := range r {
			if v == 0 {
				return false
			}
		}
	}
	d := len(r0)
	for a := 0; a < d; a++ {
		a0, a1, a2, a3 := r0[a], r1[a], r2[a], r3[a]
		s := xty[a]
		s += a0 * y[0]
		s += a1 * y[1]
		s += a2 * y[2]
		s += a3 * y[3]
		xty[a] = s
		dst := xtx[a*p : a*p+d+1]
		for b := a; b < d; b++ {
			c := dst[b]
			c += a0 * r0[b]
			c += a1 * r1[b]
			c += a2 * r2[b]
			c += a3 * r3[b]
			dst[b] = c
		}
		c := dst[d]
		c += a0
		c += a1
		c += a2
		c += a3
		dst[d] = c
	}
	return true
}
