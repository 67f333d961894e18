#include "textflag.h"

// func copyLines(dst, src []byte, l int)
//
// Copies the 3·l bytes of src to dst (l > 0 a multiple of 64, dst 16-byte
// aligned) as three strands of l bytes, one 64-byte line of each per
// iteration: the twelve unaligned loads of the three lines, then their twelve
// non-temporal stores. An SFENCE orders the stores before the return.
TEXT ·copyLines(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ l+48(FP), CX
	LEAQ (SI)(CX*1), R8
	LEAQ (R8)(CX*1), R9
	LEAQ (DI)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	XORQ AX, AX

loop:
	MOVUPD  0(SI)(AX*1), X0
	MOVUPD  16(SI)(AX*1), X1
	MOVUPD  32(SI)(AX*1), X2
	MOVUPD  48(SI)(AX*1), X3
	MOVUPD  0(R8)(AX*1), X4
	MOVUPD  16(R8)(AX*1), X5
	MOVUPD  32(R8)(AX*1), X6
	MOVUPD  48(R8)(AX*1), X7
	MOVUPD  0(R9)(AX*1), X8
	MOVUPD  16(R9)(AX*1), X9
	MOVUPD  32(R9)(AX*1), X10
	MOVUPD  48(R9)(AX*1), X11
	MOVNTPD X0, 0(DI)(AX*1)
	MOVNTPD X1, 16(DI)(AX*1)
	MOVNTPD X2, 32(DI)(AX*1)
	MOVNTPD X3, 48(DI)(AX*1)
	MOVNTPD X4, 0(R10)(AX*1)
	MOVNTPD X5, 16(R10)(AX*1)
	MOVNTPD X6, 32(R10)(AX*1)
	MOVNTPD X7, 48(R10)(AX*1)
	MOVNTPD X8, 0(R11)(AX*1)
	MOVNTPD X9, 16(R11)(AX*1)
	MOVNTPD X10, 32(R11)(AX*1)
	MOVNTPD X11, 48(R11)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JB      loop
	SFENCE
	RET
