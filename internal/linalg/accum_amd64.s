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

// func accumRow4(xtx, xty []float64, rows [][]float64, y []float64, p int) bool
//
// Four consecutive observation rows' normal-equation update in one
// pass over the triangle (contract on the declaration and the generic
// implementation). Each cell is loaded once, receives rows 0..3's
// products in row order — one MULPD then one ADDPD per row, the
// accumulator always the first addend, never FMA — and is stored
// once, so every cell sees exactly the operations of four accumRow
// calls. A zero gene anywhere in the block makes the kernel return
// false before it writes anything: the caller then runs the four rows
// through accumRow, whose per-gene skip this kernel does not have.
//
// Register layout:
//   SI, DI, AX, BX = &rows[0..3][0]   CX = d   R13 = d-1
//   R8 = &xtx[0]   R9 = &xty[0]   R10 = p*8   R11 = a   R12 = b
//   DX = &xtx[a*p]   X0..X3 = [rows[k][a], rows[k][a]]   X4..X7 = y[0..3]
TEXT ·accumRow4(SB), NOSPLIT, $0-105
	MOVQ xtx_base+0(FP), R8
	MOVQ xty_base+24(FP), R9
	MOVQ rows_base+48(FP), R12
	MOVQ y_base+72(FP), DX
	MOVQ p+96(FP), R10
	MOVQ 0(R12), SI
	MOVQ 8(R12), CX // d = len(rows[0]); the caller checked every row
	MOVQ 24(R12), DI
	MOVQ 48(R12), AX
	MOVQ 72(R12), BX
	MOVSD 0(DX), X4
	MOVSD 8(DX), X5
	MOVSD 16(DX), X6
	MOVSD 24(DX), X7

	// Zero scan: X9 collects a CMPPD equal-to-zero mask over every
	// gene of the four rows (-0 compares equal, NaN does not: the same
	// test as accumRow's skip). The odd gene of each row is compared
	// with CMPSD after a MOVSD load, whose zeroed upper lane the scalar
	// compare leaves as an all-clear mask.
	XORPS X8, X8
	XORPS X9, X9
	MOVQ  CX, R13
	SHRQ  $1, R13
	XORQ  R11, R11

scan_pair:
	CMPQ   R11, R13
	JGE    scan_odd
	MOVQ   R11, R12
	SHLQ   $4, R12
	MOVUPS (SI)(R12*1), X10
	CMPPD  X8, X10, $0
	ORPD   X10, X9
	MOVUPS (DI)(R12*1), X10
	CMPPD  X8, X10, $0
	ORPD   X10, X9
	MOVUPS (AX)(R12*1), X10
	CMPPD  X8, X10, $0
	ORPD   X10, X9
	MOVUPS (BX)(R12*1), X10
	CMPPD  X8, X10, $0
	ORPD   X10, X9
	INCQ   R11
	JMP    scan_pair

scan_odd:
	TESTQ $1, CX
	JZ    scan_done
	LEAQ  -1(CX), R12
	MOVSD (SI)(R12*8), X10
	CMPSD X8, X10, $0
	ORPD  X10, X9
	MOVSD (DI)(R12*8), X10
	CMPSD X8, X10, $0
	ORPD  X10, X9
	MOVSD (AX)(R12*8), X10
	CMPSD X8, X10, $0
	ORPD  X10, X9
	MOVSD (BX)(R12*8), X10
	CMPSD X8, X10, $0
	ORPD  X10, X9

scan_done:
	MOVMSKPD X9, R12
	TESTQ    R12, R12
	JNZ      refuse

	SHLQ $3, R10 // R10 = p*8, the byte stride between triangle rows
	MOVQ R8, DX
	LEAQ -1(CX), R13
	XORQ R11, R11

gene4:
	CMPQ     R11, CX
	JGE      done4
	MOVSD    (SI)(R11*8), X0
	MOVSD    (DI)(R11*8), X1
	MOVSD    (AX)(R11*8), X2
	MOVSD    (BX)(R11*8), X3
	UNPCKLPD X0, X0
	UNPCKLPD X1, X1
	UNPCKLPD X2, X2
	UNPCKLPD X3, X3

	// xty[a] += r_k[a]*y[k], k = 0..3 in order.
	MOVSD  (R9)(R11*8), X8
	MOVAPD X0, X9
	MULSD  X4, X9
	ADDSD  X9, X8
	MOVAPD X1, X9
	MULSD  X5, X9
	ADDSD  X9, X8
	MOVAPD X2, X9
	MULSD  X6, X9
	ADDSD  X9, X8
	MOVAPD X3, X9
	MULSD  X7, X9
	ADDSD  X9, X8
	MOVSD  X8, (R9)(R11*8)

	// xtx[a*p+b] += r_k[a]*r_k[b] for b = a..d-1, two cells at a time.
	MOVQ R11, R12
	CMPQ R12, R13
	JGE  tail4

	// Pinned for the same reason as accumRow's pair loop.
	PCALIGN $64

pair4:
	MOVUPS (DX)(R12*8), X8
	MOVUPS (SI)(R12*8), X9
	MULPD  X0, X9
	ADDPD  X9, X8
	MOVUPS (DI)(R12*8), X10
	MULPD  X1, X10
	ADDPD  X10, X8
	MOVUPS (AX)(R12*8), X11
	MULPD  X2, X11
	ADDPD  X11, X8
	MOVUPS (BX)(R12*8), X12
	MULPD  X3, X12
	ADDPD  X12, X8
	MOVUPS X8, (DX)(R12*8)
	ADDQ   $2, R12
	CMPQ   R12, R13
	JLT    pair4

tail4:
	CMPQ  R12, CX
	JGE   intercept4
	MOVSD (DX)(R12*8), X8
	MOVSD (SI)(R12*8), X9
	MULSD X0, X9
	ADDSD X9, X8
	MOVSD (DI)(R12*8), X10
	MULSD X1, X10
	ADDSD X10, X8
	MOVSD (AX)(R12*8), X11
	MULSD X2, X11
	ADDSD X11, X8
	MOVSD (BX)(R12*8), X12
	MULSD X3, X12
	ADDSD X12, X8
	MOVSD X8, (DX)(R12*8)

intercept4:
	// xtx[a*p+d] += r_k[a], k = 0..3 in order (times the implicit 1).
	MOVSD (DX)(CX*8), X8
	ADDSD X0, X8
	ADDSD X1, X8
	ADDSD X2, X8
	ADDSD X3, X8
	MOVSD X8, (DX)(CX*8)

	INCQ R11
	ADDQ R10, DX
	JMP  gene4

done4:
	MOVB $1, ret+104(FP)
	RET

refuse:
	MOVB $0, ret+104(FP)
	RET
