#include "textflag.h"

// func dotBlocks(y, c, w []float64)
//
// One pass per block of 12 outputs y[k:k+12]. X0-X5 hold the block as
// six lane pairs, cleared to +0. For each term t, X6 holds c[t] in both
// lanes and X7-X12 the window pairs w[k+t+r]; one MULPD and one ADDPD
// per pair round each lane exactly as MULSD then ADDSD would, with the
// sum as the first operand of the add. SSE2 only: no FMA, no AVX.
TEXT ·dotBlocks(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), BX
	MOVQ c_base+24(FP), SI
	MOVQ c_len+32(FP), CX
	MOVQ w_base+48(FP), DX
	TESTQ BX, BX
	JEQ  done

block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	MOVQ  SI, R8
	MOVQ  DX, R9
	MOVQ  CX, R10

term:
	MOVSD    (R8), X6
	UNPCKLPD X6, X6
	MOVUPD   (R9), X7
	MOVUPD   16(R9), X8
	MOVUPD   32(R9), X9
	MOVUPD   48(R9), X10
	MOVUPD   64(R9), X11
	MOVUPD   80(R9), X12
	MULPD    X6, X7
	MULPD    X6, X8
	MULPD    X6, X9
	MULPD    X6, X10
	MULPD    X6, X11
	MULPD    X6, X12
	ADDPD    X7, X0
	ADDPD    X8, X1
	ADDPD    X9, X2
	ADDPD    X10, X3
	ADDPD    X11, X4
	ADDPD    X12, X5
	ADDQ     $8, R8
	ADDQ     $8, R9
	DECQ     R10
	JNE      term

	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	ADDQ   $96, DI
	ADDQ   $96, DX
	SUBQ   $12, BX
	JNE    block

done:
	RET
