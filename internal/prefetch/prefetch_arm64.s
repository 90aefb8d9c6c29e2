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
