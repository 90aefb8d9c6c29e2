#include "textflag.h"

// func hint(p unsafe.Pointer)
TEXT ·hint(SB), NOSPLIT|NOFRAME, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET

// func hint2(p, q unsafe.Pointer)
TEXT ·hint2(SB), NOSPLIT|NOFRAME, $0-16
	MOVD p+0(FP), R0
	MOVD q+8(FP), R1
	PRFM (R0), PLDL1KEEP
	PRFM (R1), PLDL1KEEP
	RET

// func hintIndexed(base unsafe.Pointer, idx *int32, n int)
TEXT ·hintIndexed(SB), NOSPLIT|NOFRAME, $0-24
	MOVD base+0(FP), R0
	MOVD idx+8(FP), R1
	MOVD n+16(FP), R2
	CBZ R2, done
loop:
	MOVW.P 4(R1), R3
	ADD R3<<2, R0, R4
	PRFM (R4), PLDL1KEEP
	SUB $1, R2
	CBNZ R2, loop
done:
	RET
