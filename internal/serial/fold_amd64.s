#include "textflag.h"

// SEED sets the four min accumulators X0-X3 to +Inf and the four max
// accumulators X4-X7 to -Inf, two lanes each.
#define SEED \
	MOVQ   $0x7ff0000000000000, AX; \
	MOVQ   AX, X0; \
	SHUFPD $0, X0, X0; \
	MOVAPD X0, X1; \
	MOVAPD X0, X2; \
	MOVAPD X0, X3; \
	MOVQ   $0xfff0000000000000, AX; \
	MOVQ   AX, X4; \
	SHUFPD $0, X4, X4; \
	MOVAPD X4, X5; \
	MOVAPD X4, X6; \
	MOVAPD X4, X7

// FOLD folds the 8 elements in X8-X11 into the accumulators, through
// X12-X15; X8-X15 are clobbered. MINPD and MAXPD return their second (source)
// operand when either input is NaN or both are zero, so with the element as
// destination and the accumulator as source every lane computes
// acc = v < acc ? v : acc (and v > acc for the max): a NaN is skipped and a
// tie keeps the lane's earlier element — the strict compare of foldTile.
#define FOLD \
	MOVAPD X8, X12; \
	MOVAPD X9, X13; \
	MOVAPD X10, X14; \
	MOVAPD X11, X15; \
	MINPD  X0, X8; \
	MINPD  X1, X9; \
	MINPD  X2, X10; \
	MINPD  X3, X11; \
	MAXPD  X4, X12; \
	MAXPD  X5, X13; \
	MAXPD  X6, X14; \
	MAXPD  X7, X15; \
	MOVAPD X8, X0; \
	MOVAPD X9, X1; \
	MOVAPD X10, X2; \
	MOVAPD X11, X3; \
	MOVAPD X12, X4; \
	MOVAPD X13, X5; \
	MOVAPD X14, X6; \
	MOVAPD X15, X7

// REDUCE leaves the minimum of X0-X3 in X0's low lane and the maximum of
// X4-X7 in X4's. No accumulator holds a NaN, so the order of the reduction
// cannot change its value.
#define REDUCE \
	MINPD    X1, X0; \
	MINPD    X3, X2; \
	MINPD    X2, X0; \
	MAXPD    X5, X4; \
	MAXPD    X7, X6; \
	MAXPD    X6, X4; \
	MOVAPD   X0, X1; \
	UNPCKHPD X1, X1; \
	MINSD    X1, X0; \
	MOVAPD   X4, X5; \
	UNPCKHPD X5, X5; \
	MAXSD    X5, X4

// func foldFloat64(p []byte) (mn, mx float64)
//
// The min/max of the float64 elements of p, len(p) a multiple of 64 bytes,
// NaNs skipped: +Inf, -Inf when p holds no value. 8 elements per iteration;
// loads are unaligned.
TEXT ·foldFloat64(SB), NOSPLIT, $0-40
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	SHRQ $6, CX
	SEED
	TESTQ CX, CX
	JZ    reduce

loop:
	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11
	FOLD
	ADDQ   $64, SI
	DECQ   CX
	JNZ    loop

reduce:
	REDUCE
	MOVSD X0, mn+24(FP)
	MOVSD X4, mx+32(FP)
	RET

// LINE moves the 64-byte line at S to D with STORE, advances the CRC32C in C
// over it and folds it, all from the four registers it was loaded into: the
// CRC covers exactly the bytes stored, whatever the source does meanwhile.
#define LINE(S, D, C, STORE) \
	MOVUPD 0(S), X8; \
	MOVUPD 16(S), X9; \
	MOVUPD 32(S), X10; \
	MOVUPD 48(S), X11; \
	STORE  X8, 0(D); \
	STORE  X9, 16(D); \
	STORE  X10, 32(D); \
	STORE  X11, 48(D); \
	MOVQ   X8, AX; \
	CRC32Q AX, C; \
	PEXTRQ $1, X8, DX; \
	CRC32Q DX, C; \
	MOVQ   X9, AX; \
	CRC32Q AX, C; \
	PEXTRQ $1, X9, DX; \
	CRC32Q DX, C; \
	MOVQ   X10, AX; \
	CRC32Q AX, C; \
	PEXTRQ $1, X10, DX; \
	CRC32Q DX, C; \
	MOVQ   X11, AX; \
	CRC32Q AX, C; \
	PEXTRQ $1, X11, DX; \
	CRC32Q DX, C; \
	FOLD

// STRANDS is one iteration: the next line of each of the three strands, whose
// CRC chains are independent, so CRC32's 3-cycle latency is hidden.
#define STRANDS(STORE) \
	LINE(SI, DI, R8, STORE); \
	LINE(R11, R13, R9, STORE); \
	LINE(R12, BX, R10, STORE); \
	ADDQ $64, SI; \
	ADDQ $64, DI; \
	ADDQ $64, R11; \
	ADDQ $64, R13; \
	ADDQ $64, R12; \
	ADDQ $64, BX

// func sweepLines(dst, src []byte, l int, crc uint32, stream bool) (a, b, c uint32, mn, mx float64)
//
// Copies the 3·l bytes of src to dst (l > 0 a multiple of 64, dst 16-byte
// aligned) as three strands of l bytes, one line of each per iteration. a is
// crc advanced over the first strand, b and c the CRC32C of the second and
// third from zero; mn, mx are foldFloat64's over all three. With stream set
// the stores are non-temporal, and an SFENCE orders them before the return.
// Needs SSE4.2 (CRC32) and SSE4.1 (PEXTRQ).
TEXT ·sweepLines(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ l+48(FP), CX
	MOVL crc+56(FP), R8
	NOTL R8
	MOVL $-1, R9
	MOVL $-1, R10
	LEAQ (SI)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (DI)(CX*1), R13
	LEAQ (R13)(CX*1), BX
	SHRQ $6, CX
	SEED
	CMPB stream+60(FP), $0
	JNE  stream

cached:
	STRANDS(MOVAPD)
	DECQ CX
	JNZ  cached
	JMP  done

stream:
	STRANDS(MOVNTPD)
	DECQ CX
	JNZ  stream
	SFENCE

done:
	REDUCE
	NOTL  R8
	NOTL  R9
	NOTL  R10
	MOVL  R8, a+64(FP)
	MOVL  R9, b+68(FP)
	MOVL  R10, c+72(FP)
	MOVSD X0, mn+80(FP)
	MOVSD X4, mx+88(FP)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET
