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

// func hintIndexed(base unsafe.Pointer, idx *int32, n int)
TEXT ·hintIndexed(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ base+0(FP), AX
	MOVQ idx+8(FP), BX
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE done
loop:
	MOVLQSX (BX), DX
	PREFETCHT0 (AX)(DX*4)
	ADDQ $4, BX
	DECQ CX
	JNZ loop
done:
	RET
