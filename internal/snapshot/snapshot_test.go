package snapshot

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// buildSample writes one value of every type plus sectioning.
func buildSample() []byte {
	w := NewWriter(0)
	w.Section("alpha")
	w.Bool(true)
	w.U8(7)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.Bytes([]byte{1, 2, 3})
	w.Section("beta")
	w.I32s([]int32{-1, 0, 1, math.MaxInt32})
	w.I64s([]int64{math.MinInt64, 9})
	w.U64s([]uint64{0, math.MaxUint64})
	w.U32s([]uint32{4, 5})
	w.U16s([]uint16{6})
	w.U8s([]uint8{8, 9})
	w.F64s([]float64{0.5, -0.25, math.Inf(1)})
	return w.Finish()
}

func TestRoundTrip(t *testing.T) {
	data := buildSample()
	r, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Section("alpha")
	if !r.Bool() || r.U8() != 7 || r.U32() != 1<<30 || r.U64() != 1<<60 {
		t.Fatalf("scalar mismatch (err=%v)", r.Err())
	}
	if r.I64() != -42 || r.Int() != -7 || r.F64() != math.Pi {
		t.Fatalf("scalar mismatch (err=%v)", r.Err())
	}
	if b := r.Bytes(0); len(b) != 3 || b[2] != 3 {
		t.Fatalf("bytes mismatch: %v", b)
	}
	r.Section("beta")
	if s := r.I32s(0); len(s) != 4 || s[0] != -1 || s[3] != math.MaxInt32 {
		t.Fatalf("i32s mismatch: %v", s)
	}
	if s := r.I64s(0); len(s) != 2 || s[0] != math.MinInt64 {
		t.Fatalf("i64s mismatch: %v", s)
	}
	if s := r.U64s(0); len(s) != 2 || s[1] != math.MaxUint64 {
		t.Fatalf("u64s mismatch: %v", s)
	}
	if s := r.U32s(0); len(s) != 2 || s[0] != 4 {
		t.Fatalf("u32s mismatch: %v", s)
	}
	if s := r.U16s(0); len(s) != 1 || s[0] != 6 {
		t.Fatalf("u16s mismatch: %v", s)
	}
	if s := r.U8s(0); len(s) != 2 || s[1] != 9 {
		t.Fatalf("u8s mismatch: %v", s)
	}
	if s := r.F64s(0); len(s) != 3 || s[0] != 0.5 || !math.IsInf(s[2], 1) {
		t.Fatalf("f64s mismatch: %v", s)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPortableSliceCodec runs the slice codec through its big-endian-host
// fallback (binary.Append / binary.Decode) and requires the bytes the bulk
// copy writes, and the same values back.
func TestPortableSliceCodec(t *testing.T) {
	sample := func() []byte {
		w := NewWriter(0)
		w.I32s([]int32{-1, 0, 1, math.MaxInt32})
		w.I64s([]int64{math.MinInt64, 9})
		w.U64s([]uint64{0, math.MaxUint64})
		w.U32s([]uint32{4, 5})
		w.U16s([]uint16{6, math.MaxUint16})
		w.F64s([]float64{0.5, -0.25, math.Inf(1)})
		w.F32s([]float32{1.5, -2})
		return w.Finish()
	}
	bulk := sample()
	hostLittleEndian = false
	defer func() { hostLittleEndian = true }()
	if portable := sample(); string(portable) != string(bulk) {
		t.Fatalf("portable encode differs from the bulk copy:\n%x\n%x", portable, bulk)
	}
	r, err := Open(bulk)
	if err != nil {
		t.Fatal(err)
	}
	i32, i64, u64, u32 := r.I32s(0), r.I64s(0), r.U64s(0), r.U32s(0)
	u16, f64s, f32s := r.U16s(0), r.F64s(0), r.F32s(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if i32[0] != -1 || i32[3] != math.MaxInt32 || i64[0] != math.MinInt64 || u64[1] != math.MaxUint64 ||
		u32[1] != 5 || u16[1] != math.MaxUint16 || f64s[1] != -0.25 || !math.IsInf(f64s[2], 1) || f32s[0] != 1.5 || f32s[1] != -2 {
		t.Fatalf("portable decode: %v %v %v %v %v %v %v", i32, i64, u64, u32, u16, f64s, f32s)
	}
}

// TestFill decodes every slice the Writer writes straight into a
// destination of the declared length, on both codec paths, and refuses a
// declared length that differs from the destination's without touching
// it.
func TestFill(t *testing.T) {
	w := NewWriter(0)
	w.I64s([]int64{math.MinInt64, 9})
	w.U8s([]uint8{8, 9, 10})
	w.F32s([]float32{1.5, -2})
	w.U64s(nil)
	w.U16s([]uint16{6, 7})
	data := w.Finish()
	for _, le := range []bool{true, false} {
		hostLittleEndian = le
		r, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		i64, u8, f32 := make([]int64, 2), make([]uint8, 3), make([]float32, 2)
		Fill(r, "i64s", i64)
		Fill(r, "u8s", u8)
		Fill(r, "f32s", f32)
		Fill(r, "empty", []uint64{})
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if i64[0] != math.MinInt64 || i64[1] != 9 || u8[2] != 10 || f32[0] != 1.5 || f32[1] != -2 {
			t.Fatalf("little-endian=%v: decoded %v %v %v", le, i64, u8, f32)
		}
		u16 := []uint16{1, 2, 3}
		Fill(r, "short", u16)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "short declares 2 elements, its destination holds 3") {
			t.Fatalf("little-endian=%v: want a length mismatch, got %v", le, err)
		}
		if u16[0] != 1 || u16[2] != 3 {
			t.Fatalf("a refused Fill wrote %v", u16)
		}
	}
	hostLittleEndian = true

	w = NewWriter(0)
	w.U64(1 << 40) // a fake element count with no elements behind it
	r, err := Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	Fill(r, "hollow", make([]float64, 1<<10))
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "refusing to allocate") {
		t.Fatalf("want the anti-OOM refusal, got %v", err)
	}
}

// reseal recomputes the CRC trailer after a deliberate header/payload edit,
// so a test reaches the check behind the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-trailerLen]
	binary.LittleEndian.PutUint64(data[len(data)-trailerLen:], checksum(body))
	return data
}

func TestOpenRejections(t *testing.T) {
	base := buildSample()
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"truncated-to-empty", func(d []byte) []byte { return d[:0] }, "shorter than"},
		{"truncated-mid-header", func(d []byte) []byte { return d[:headerLen+trailerLen-1] }, "shorter than"},
		{"truncated-tail", func(d []byte) []byte { return d[:len(d)-5] }, "checksum mismatch"},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }, "bad magic"},
		{"wrong-version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], Version+1)
			return reseal(d) // valid checksum: the version check itself must fire
		}, "format version"},
		{"bit-flip-payload", func(d []byte) []byte { d[headerLen+3] ^= 0x10; return d }, "checksum mismatch"},
		{"bit-flip-trailer", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }, "checksum mismatch"},
		{"torn-zero-tail", func(d []byte) []byte {
			for i := len(d) / 2; i < len(d); i++ {
				d[i] = 0
			}
			return d
		}, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := make([]byte, len(base))
			copy(d, base)
			_, err := Open(tc.mutate(d))
			if err == nil {
				t.Fatalf("Open accepted corrupted snapshot")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDeclaredSizeBeyondPayload crafts a snapshot whose slice header
// declares more elements than the payload holds; the reader must refuse
// before allocating.
func TestDeclaredSizeBeyondPayload(t *testing.T) {
	w := NewWriter(0)
	w.U64(1 << 40) // a fake element count with no elements behind it
	data := w.Finish()
	r, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s := r.F64s(0); s != nil {
		t.Fatalf("got %d elements from a hollow declaration", len(s))
	}
	err = r.Err()
	if err == nil || !strings.Contains(err.Error(), "refusing to allocate") {
		t.Fatalf("want refusing-to-allocate error, got %v", err)
	}
}

// TestDeclaredSizeBeyondBudget pads the payload so the declared count fits
// the bytes but exceeds the caller's cap — the memory-budget refusal path.
func TestDeclaredSizeBeyondBudget(t *testing.T) {
	w := NewWriter(0)
	w.U8s(make([]uint8, 4096))
	data := w.Finish()
	r, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s := r.U8s(100); s != nil {
		t.Fatalf("got %d elements past the budget", len(s))
	}
	err = r.Err()
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestStickyErrorAndSectionDrift(t *testing.T) {
	data := buildSample()
	r, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Section("wrong-tag")
	if r.Err() == nil || !strings.Contains(r.Err().Error(), `want "wrong-tag"`) {
		t.Fatalf("want section-drift error, got %v", r.Err())
	}
	first := r.Err()
	// Every later read must return zero values and keep the first error.
	if v := r.U64(); v != 0 {
		t.Fatalf("read %d after sticky error", v)
	}
	if s := r.F64s(0); s != nil {
		t.Fatalf("read %d elements after sticky error", len(s))
	}
	if r.Err() != first {
		t.Fatalf("sticky error replaced: %v -> %v", first, r.Err())
	}
	if r.Close() != first {
		t.Fatalf("Close lost the sticky error")
	}
}

func TestCloseDetectsUnreadTail(t *testing.T) {
	data := buildSample()
	r, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Section("alpha")
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "unread payload") {
		t.Fatalf("want unread-payload error, got %v", err)
	}
}

// BenchmarkEncode measures bulk encode throughput on a slab mix shaped
// like million-peer kernel state (the README's >= 1 GB/s target).
func BenchmarkEncode(b *testing.B) {
	const n = 1 << 20
	f := make([]float64, n)
	i64 := make([]int64, n)
	i32 := make([]int32, n)
	u32 := make([]uint32, n)
	u8 := make([]uint8, n)
	for i := 0; i < n; i++ {
		f[i] = float64(i) * 0.5
		i64[i] = int64(i)
		i32[i] = int32(i)
		u32[i] = uint32(i)
		u8[i] = uint8(i)
	}
	bytesPer := int64(n * (8 + 8 + 4 + 4 + 1))
	b.SetBytes(bytesPer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(int(bytesPer) + 64)
		w.Section("bench")
		w.F64s(f)
		w.I64s(i64)
		w.I32s(i32)
		w.U32s(u32)
		w.U8s(u8)
		if len(w.Finish()) < int(bytesPer) {
			b.Fatal("short encode")
		}
	}
}
