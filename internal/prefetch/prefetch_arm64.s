#include "textflag.h"

// func hint(p unsafe.Pointer)
TEXT ·hint(SB), NOSPLIT|NOFRAME, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET
