#include "textflag.h"

// func foldFloat64(p []byte) (mn, mx float64)
//
// The min/max of the float64 elements of p, len(p) a multiple of 64 bytes,
// NaNs skipped: +Inf, -Inf when p holds no value. Four min and four max
// accumulators of two lanes each take 8 elements per iteration; loads are
// unaligned. MINPD and MAXPD return their second (source) operand when either
// input is NaN or both are zero, so with the element as destination and the
// accumulator as source every lane computes acc = v < acc ? v : acc (and
// v > acc for the max): a NaN is skipped and a tie keeps the lane's earlier
// element — the strict compare of foldTile.
TEXT ·foldFloat64(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	SHRQ $6, CX

	MOVQ    $0x7ff0000000000000, AX // +Inf
	MOVQ    AX, X0
	SHUFPD  $0, X0, X0
	MOVAPD  X0, X1
	MOVAPD  X0, X2
	MOVAPD  X0, X3
	MOVQ    $0xfff0000000000000, AX // -Inf
	MOVQ    AX, X4
	SHUFPD  $0, X4, X4
	MOVAPD  X4, X5
	MOVAPD  X4, X6
	MOVAPD  X4, X7
	TESTQ   CX, CX
	JZ      reduce

loop:
	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11
	MOVAPD X8, X12
	MOVAPD X9, X13
	MOVAPD X10, X14
	MOVAPD X11, X15
	MINPD  X0, X8
	MINPD  X1, X9
	MINPD  X2, X10
	MINPD  X3, X11
	MAXPD  X4, X12
	MAXPD  X5, X13
	MAXPD  X6, X14
	MAXPD  X7, X15
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2
	MOVAPD X11, X3
	MOVAPD X12, X4
	MOVAPD X13, X5
	MOVAPD X14, X6
	MOVAPD X15, X7
	ADDQ   $64, SI
	DECQ   CX
	JNZ    loop

reduce:
	// No accumulator holds a NaN, so the order of the reduction cannot
	// change its value.
	MINPD    X1, X0
	MINPD    X3, X2
	MINPD    X2, X0
	MAXPD    X5, X4
	MAXPD    X7, X6
	MAXPD    X6, X4
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	MINSD    X1, X0
	MOVAPD   X4, X5
	UNPCKHPD X5, X5
	MAXSD    X5, X4
	MOVSD    X0, mn+24(FP)
	MOVSD    X4, mx+32(FP)
	RET
