#include "textflag.h"

// func hint(p unsafe.Pointer)
TEXT ·hint(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET

// func hint2(p, q unsafe.Pointer)
TEXT ·hint2(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ p+0(FP), AX
	MOVQ q+8(FP), BX
	PREFETCHT0 (AX)
	PREFETCHT0 (BX)
	RET
