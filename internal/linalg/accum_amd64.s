//go:build amd64

#include "textflag.h"

// func accumRow(xtx, xty, row []float64, yi float64, p int)
//
// One observation row's normal-equation update (the contract is
// documented on the declaration and the generic implementation).
// Per-cell bit-identity with the scalar loop holds because every
// element still receives exactly one multiply and one add, each with
// a single rounding (MULPD/ADDPD, never FMA), with the accumulator as
// the first addend.
//
// Register layout:
//   SI = &row[0]   CX = d = len(row)   R8 = &xtx[0]   R9 = &xty[0]
//   R10 = p        R11 = a             X0 = yi        X7 = 0.0
TEXT ·accumRow(SB), NOSPLIT, $0-88
	MOVQ  xtx_base+0(FP), R8
	MOVQ  xty_base+24(FP), R9
	MOVQ  row_base+48(FP), SI
	MOVQ  row_len+56(FP), CX
	MOVSD yi+72(FP), X0
	MOVQ  p+80(FP), R10
	XORPS X7, X7
	XORQ  R11, R11

loop_a:
	CMPQ R11, CX
	JGE  done
	MOVSD (SI)(R11*8), X1 // X1 = ra = row[a]
	// Skip ra == 0 (NaN compares unordered: PF set, so JP keeps it).
	UCOMISD X7, X1
	JP      gene
	JE      next_a

gene:
	// xty[a] += ra * yi
	MOVAPD X1, X2
	MULSD  X0, X2
	MOVSD  (R9)(R11*8), X3
	ADDSD  X2, X3
	MOVSD  X3, (R9)(R11*8)

	// DX = &xtx[a*p+a], BX = &row[a], R12 = run length d-a
	MOVQ     R11, DX
	IMULQ    R10, DX
	ADDQ     R11, DX
	LEAQ     (R8)(DX*8), DX
	LEAQ     (SI)(R11*8), BX
	MOVQ     CX, R12
	SUBQ     R11, R12
	UNPCKLPD X1, X1 // X1 = [ra, ra]

	MOVQ R12, R13
	SHRQ $1, R13 // R13 = pairs
	JZ   tail

	// The pair loop is 30 bytes. Functions start 32-byte aligned, so
	// without this its place in a 64-byte line follows the code linked
	// before it: straddling a line boundary made the whole regression
	// ~25% slower, so unrelated edits elsewhere moved every Fit.
	PCALIGN $64

pair:
	MOVUPS (BX), X4
	MULPD  X1, X4
	MOVUPS (DX), X5
	ADDPD  X4, X5
	MOVUPS X5, (DX)
	ADDQ   $16, BX
	ADDQ   $16, DX
	DECQ   R13
	JNZ    pair

tail:
	ANDQ $1, R12
	JZ   intercept
	MOVSD (BX), X4
	MULSD X1, X4
	MOVSD (DX), X5
	ADDSD X4, X5
	MOVSD X5, (DX)
	ADDQ  $8, DX

intercept:
	// DX now points one past the b = d-1 cell: xtx[a*p+d] += ra.
	MOVSD (DX), X5
	ADDSD X1, X5
	MOVSD X5, (DX)

next_a:
	INCQ R11
	JMP  loop_a

done:
	RET
