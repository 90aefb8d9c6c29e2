// Package snapshot implements the versioned, checksummed binary format the
// simulation kernel uses for checkpoint/restore. The format is deliberately
// dumb: a fixed magic + version header, a flat little-endian payload of
// tagged sections, and a CRC32-Castagnoli trailer (in an 8-byte slot) over
// everything before it — the same corruption-detection code ext4 and iSCSI
// use, hardware-accelerated on amd64 and arm64 so checksumming never
// bottlenecks the encode path.
//
// Determinism contract: a snapshot captures every bit of mutable run state —
// SoA slabs, free lists, generation counters, pending-event sets, policy
// counters, and the position of every RNG stream — so that restoring and
// running to completion is byte-identical to the uninterrupted run. Derived
// state that is rebuilt canonically from serialized state (hash indexes,
// reverse indexes, scratch buffers) is deliberately NOT stored.
//
// Robustness contract: Open verifies magic, version, and the whole-payload
// checksum BEFORE any parsing, so torn writes, truncation, and bit flips are
// always detected up front. Bulk reads validate declared element counts
// against the remaining payload bytes (and optional caller caps) before
// allocating, so a crafted or mismatched snapshot is refused with an error
// instead of an attempted multi-gigabyte allocation.
//
// The encode path is a near-memcpy: on little-endian hosts slice payloads
// are appended via a single unsafe byte-view copy, which comfortably clears
// the 1 GB/s target on million-peer state; other hosts fall back to a
// per-element loop with identical bytes on disk.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"
)

// Version is the current snapshot format version. Bump on any layout change.
// Version 2: scheduler slabs carry per-slot sequence numbers and derive the
// pending set from slot states (no serialized pending pairs), and snapshots
// may open with a chain-link header.
// Version 3: bases and deltas share one layout — segmented scheduler slabs
// and peer arrays, each link listing the segments it carries, a base
// carrying all of them — and the sharded kernel writes the policy stream
// only when a policy pipeline is configured.
// Version 4: the sharded kernel's lane sections carry the workload
// counters, and its peer segments each peer's pending workload-event
// handle; the separate workload section is gone. Every checkpoint is now
// a base (delta links are no longer written or read); the base layout is
// the version-4 layout, segment lists included.
const Version uint32 = 4

// magic identifies a creditp2p snapshot; exactly 8 bytes.
var magic = [8]byte{'C', 'P', '2', 'P', 'S', 'N', 'A', 'P'}

const (
	headerLen  = 8 + 4 // magic + version
	trailerLen = 8     // checksum slot (CRC32C in the low 32 bits)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the trailer value for a header+payload body.
func checksum(body []byte) uint64 {
	return uint64(crc32.Checksum(body, crcTable))
}

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// --- Writer ---

// Writer accumulates a snapshot payload in memory. Create with NewWriter,
// append values with the typed methods, and call Finish to obtain the final
// byte slice (header + payload + checksum trailer). NewRawWriter creates a
// header-less fragment writer whose bytes are later concatenated after a
// header-bearing fragment by Seal — the parallel-encode path, where each
// shard serializes its sections into its own recycled fragment.
type Writer struct {
	buf []byte
	raw bool
}

// NewWriter returns a Writer with the magic + version header already
// emitted. sizeHint, when positive, pre-sizes the buffer.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < headerLen+trailerLen {
		sizeHint = 1 << 12
	}
	w := &Writer{buf: make([]byte, 0, sizeHint)}
	w.buf = append(w.buf, magic[:]...)
	w.U32(Version)
	return w
}

// NewRawWriter returns a fragment Writer with no header: its Bytes are a
// run of tagged sections destined for Seal. sizeHint, when positive,
// pre-sizes the buffer.
func NewRawWriter(sizeHint int) *Writer {
	if sizeHint < 1 {
		sizeHint = 1 << 10
	}
	return &Writer{buf: make([]byte, 0, sizeHint), raw: true}
}

// Len returns the number of bytes written so far (excluding the trailer).
func (w *Writer) Len() int { return len(w.buf) }

// Frame returns the accumulated bytes without a trailer — the fragment
// surface consumed by Seal. The slice aliases the writer's buffer.
func (w *Writer) Frame() []byte { return w.buf }

// Reset truncates the writer for reuse, keeping the grown buffer — the
// recycling hook for periodic checkpoint encoding. A header-bearing writer
// re-emits the magic + version header.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	if !w.raw {
		w.buf = append(w.buf, magic[:]...)
		w.U32(Version)
	}
}

// Finish appends the checksum trailer and returns the complete snapshot.
// The Writer must not be used afterwards (Reset recycles it).
func (w *Writer) Finish() []byte {
	if w.raw {
		panic("snapshot: Finish on a raw fragment writer (Seal assembles fragments)")
	}
	sum := checksum(w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, sum)
	return w.buf
}

// SealedLen returns the length of the snapshot Seal makes of parts: the
// fragments plus the checksum trailer.
func SealedLen(parts [][]byte) int {
	total := trailerLen
	for _, p := range parts {
		total += len(p)
	}
	return total
}

// Seal concatenates fragments into dst, appends the checksum trailer, and
// returns the sealed snapshot. dst is recycled: when its capacity falls
// short it grows geometrically, as append does, so a periodic checkpoint
// whose bases grow a little each time reallocates only rarely. The first
// fragment must begin with the magic + version header (a NewWriter
// fragment); the rest are raw. The sealed bytes are identical to a single
// Writer emitting the same sections in order, so serial and parallel
// encodes are byte-interchangeable.
func Seal(dst []byte, parts [][]byte) []byte {
	dst = slices.Grow(dst[:0], SealedLen(parts))
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
		dst = append(dst, p...)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(crc))
}

// Section emits a short tag delimiting a logical group of fields. Readers
// verify tags in order, turning any writer/reader drift into a descriptive
// error instead of silently misaligned values.
func (w *Writer) Section(tag string) {
	if len(tag) > 255 {
		panic("snapshot: section tag too long")
	}
	w.buf = append(w.buf, byte(len(tag)))
	w.buf = append(w.buf, tag...)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// fixed is the element types the bulk slice codec carries: fixed-width
// numbers whose in-memory bytes on a little-endian host are exactly their
// encoding.
type fixed interface {
	~int32 | ~int64 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// putSlice writes a length-prefixed slice of fixed-width values: one
// unsafe byte-view copy on little-endian hosts, binary.Append's
// per-element encoding (identical bytes) elsewhere.
func putSlice[T fixed](w *Writer, s []T) {
	w.U64(uint64(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLittleEndian {
		w.buf = append(w.buf, unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))...)
		return
	}
	w.buf, _ = binary.Append(w.buf, binary.LittleEndian, s) // fixed-width slices always encode
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(s []int32) { putSlice(w, s) }

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(s []int64) { putSlice(w, s) }

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) { putSlice(w, s) }

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(s []uint32) { putSlice(w, s) }

// U16s writes a length-prefixed []uint16.
func (w *Writer) U16s(s []uint16) { putSlice(w, s) }

// U8s writes a length-prefixed []uint8.
func (w *Writer) U8s(s []uint8) { w.Bytes(s) }

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(s []float64) { putSlice(w, s) }

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(s []float32) { putSlice(w, s) }

// --- Reader ---

// Reader parses a snapshot previously produced by a Writer. Errors are
// sticky: after the first failure every subsequent read returns the zero
// value and Err reports the original problem, so restore code can read a
// whole section and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open validates magic, version, and the whole-payload checksum trailer, and
// returns a Reader positioned after the header. Any corruption — torn
// write, truncation, bit flip — fails here, before any state is touched.
func Open(data []byte) (*Reader, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the %d-byte header+trailer (truncated?)", len(data), headerLen+trailerLen)
	}
	if *(*[8]byte)(data) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q, want %q", data[:8], magic[:])
	}
	ver := binary.LittleEndian.Uint32(data[8:])
	if ver != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads version %d", ver, Version)
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	if got := checksum(body); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch: computed %016x, trailer says %016x (corrupted or torn write)", got, want)
	}
	return &Reader{buf: body, off: headerLen}, nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if rem := len(r.buf) - r.off; rem < n {
		r.fail("reading %s at offset %d: need %d bytes, %d remain", what, r.off, n, rem)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Section consumes a tag and verifies it matches, failing with a
// descriptive structure error otherwise.
func (r *Reader) Section(tag string) {
	if r.err != nil {
		return
	}
	lb := r.take(1, "section tag length")
	if lb == nil {
		return
	}
	b := r.take(int(lb[0]), "section tag")
	if b == nil {
		return
	}
	if string(b) != tag {
		r.fail("section %q at offset %d, want %q (format drift or wrong snapshot)", b, r.off-len(b), tag)
	}
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool {
	b := r.take(1, "bool")
	return b != nil && b[0] != 0
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	b := r.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// count validates a declared element count before any allocation: the
// declared payload must fit in the remaining bytes, and — when the caller
// passed a positive cap — must not exceed it. This is the anti-OOM gate.
func (r *Reader) count(what string, size, max int) int {
	if r.err != nil {
		return -1
	}
	n64 := r.U64()
	if r.err != nil {
		return -1
	}
	rem := len(r.buf) - r.off
	if n64 > uint64(rem)/uint64(size) {
		r.fail("%s declares %d elements (%d bytes each) but only %d payload bytes remain — refusing to allocate", what, n64, size, rem)
		return -1
	}
	n := int(n64)
	if max > 0 && n > max {
		r.fail("%s declares %d elements, exceeding the caller's budget of %d — refusing to allocate", what, n, max)
		return -1
	}
	return n
}

// Bytes reads a length-prefixed byte slice. max, when positive, caps the
// accepted length.
func (r *Reader) Bytes(max int) []byte {
	n := r.count("bytes", 1, max)
	if n <= 0 {
		return nil
	}
	b := r.take(n, "bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// getSlice reads a length-prefixed slice of fixed-width values named what
// in errors. The declared count passes the anti-OOM gate before the
// allocation; the payload is one copy on little-endian hosts and
// binary.Decode's per-element decoding elsewhere.
func getSlice[T fixed](r *Reader, what string, max int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n := r.count(what, size, max)
	if n <= 0 {
		return nil
	}
	b := r.take(n*size, what)
	if b == nil {
		return nil
	}
	out := make([]T, n)
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*size), b)
	} else if _, err := binary.Decode(b, binary.LittleEndian, out); err != nil {
		r.fail("decoding %s: %v", what, err)
		return nil
	}
	return out
}

// I32s reads a length-prefixed []int32. max, when positive, caps the
// accepted element count (as for every slice reader below).
func (r *Reader) I32s(max int) []int32 { return getSlice[int32](r, "[]int32", max) }

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s(max int) []int64 { return getSlice[int64](r, "[]int64", max) }

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s(max int) []uint64 { return getSlice[uint64](r, "[]uint64", max) }

// U32s reads a length-prefixed []uint32.
func (r *Reader) U32s(max int) []uint32 { return getSlice[uint32](r, "[]uint32", max) }

// U16s reads a length-prefixed []uint16.
func (r *Reader) U16s(max int) []uint16 { return getSlice[uint16](r, "[]uint16", max) }

// U8s reads a length-prefixed []uint8.
func (r *Reader) U8s(max int) []uint8 { return r.Bytes(max) }

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s(max int) []float64 { return getSlice[float64](r, "[]float64", max) }

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s(max int) []float32 { return getSlice[float32](r, "[]float32", max) }

// Close verifies the payload was fully consumed — a trailing-garbage guard
// for restore paths — and returns the sticky error, if any.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if rem := len(r.buf) - r.off; rem != 0 {
		return fmt.Errorf("snapshot: %d unread payload bytes after restore — snapshot and reader disagree on layout", rem)
	}
	return nil
}
