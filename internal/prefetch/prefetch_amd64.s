#include "textflag.h"

// func hint(p unsafe.Pointer)
TEXT ·hint(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET
