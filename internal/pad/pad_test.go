package pad

import (
	"testing"
	"unsafe"
)

type (
	b24 struct{ a, b, c uint64 }
	b32 struct{ a, b, c, d uint64 }
	p32 struct {
		p       *int
		a, b, c uint64
	}
	b128 [16]uint64
)

func checkCap[T any](t *testing.T, name string) {
	t.Helper()
	var zero T
	size := int(unsafe.Sizeof(zero))
	for n := 0; n <= 300; n++ {
		c := Cap[T](n)
		if c < n || c < 1 {
			t.Fatalf("%s: Cap(%d) = %d", name, n, c)
		}
		if b := c * size; b%Block != 0 || b == 5*Block {
			t.Fatalf("%s: Cap(%d) = %d elements = %d bytes, not a whole-block size", name, n, c, b)
		}
		if c > n && c-1 >= max(n, 1) && (c-1)*size%Block == 0 && (c-1)*size != 5*Block {
			t.Fatalf("%s: Cap(%d) = %d is not the smallest whole-block capacity", name, n, c)
		}
	}
}

func TestCapWholeBlocks(t *testing.T) {
	checkCap[uint8](t, "uint8")
	checkCap[int32](t, "int32")
	checkCap[uint64](t, "uint64")
	checkCap[b24](t, "24-byte")
	checkCap[b32](t, "32-byte")
	checkCap[p32](t, "32-byte with pointer")
	checkCap[b128](t, "128-byte")
}

// TestMakeBlockAligned checks the allocator property the package relies
// on: a pointer-free whole-block array starts on a block boundary.
func TestMakeBlockAligned(t *testing.T) {
	for n := 0; n < 200; n += 7 {
		s := Make[uint64](n)
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(s))); a%Block != 0 {
			t.Fatalf("Make[uint64](%d) starts at %#x, not on a %d-byte boundary", n, a, Block)
		}
		g := Grow(s, 3*n+1)
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(g))); a%Block != 0 || cap(g)-len(g) < 3*n+1 {
			t.Fatalf("Grow(%d) gave cap %d at %#x", 3*n+1, cap(g), a)
		}
	}
}
