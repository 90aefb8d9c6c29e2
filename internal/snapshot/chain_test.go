package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"creditp2p/internal/snapshot"
)

// mkLink builds a complete chained snapshot file with the given header
// and a small payload.
func mkLink(h snapshot.LinkHeader, payload uint64) []byte {
	w := snapshot.NewWriter(256)
	w.LinkHeader(h)
	w.Section("body")
	w.U64(payload)
	return w.Finish()
}

// mkBase builds a valid one-base chain link.
func mkBase(id uint64) []byte {
	return mkLink(snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: id}, 0)
}

// mkDelta builds a link of the delta kind an older build chained to a
// base: kind 1, the base's id, index 1 and the base's trailer as its
// predecessor CRC.
func mkDelta(base []byte, id uint64) []byte {
	crc := binary.LittleEndian.Uint64(base[len(base)-8:])
	return mkLink(snapshot.LinkHeader{Kind: 1, ID: id, Index: 1, PrevCRC: crc}, 1)
}

// TestValidateChain pins the one shape a checkpoint chain may have: one
// base. Chains that still carry delta links, whole or in part, are
// refused with an error that says a checkpoint is one base.
func TestValidateChain(t *testing.T) {
	base := mkBase(0xabc)
	if err := snapshot.ValidateChain([][]byte{base}); err != nil {
		t.Fatalf("base refused: %v", err)
	}
	delta := mkDelta(base, 0xabc)

	bad := []struct {
		name    string
		chain   [][]byte
		oneBase bool // the error must say a checkpoint is one base
	}{
		{"empty", nil, false},
		{"base and delta", [][]byte{base, delta}, true},
		{"two bases", [][]byte{base, mkBase(0xdef)}, true},
		{"lone delta", [][]byte{delta}, true},
		{"base with an index", [][]byte{mkLink(snapshot.LinkHeader{ID: 0xabc, Index: 1}, 0)}, false},
		{"base with a predecessor", [][]byte{mkLink(snapshot.LinkHeader{ID: 0xabc, PrevCRC: 0x1234}, 0)}, false},
		{"corrupt base", [][]byte{func() []byte {
			evil := append([]byte(nil), base...)
			evil[len(evil)/2] ^= 0x40
			return evil
		}()}, false},
		{"truncated base", [][]byte{base[:len(base)-3]}, false},
	}
	for _, tc := range bad {
		err := snapshot.ValidateChain(tc.chain)
		if err == nil {
			t.Errorf("%s: invalid chain validated", tc.name)
		} else if tc.oneBase && !strings.Contains(err.Error(), "a checkpoint is one base") {
			t.Errorf("%s: error %q does not say a checkpoint is one base", tc.name, err)
		}
	}
}

// TestSealMatchesSingleWriter pins the parallel-encode contract: sealing
// a header fragment plus raw fragments produces the exact bytes (and
// checksum) of one Writer emitting the same sections serially.
func TestSealMatchesSingleWriter(t *testing.T) {
	serial := snapshot.NewWriter(256)
	serial.Section("alpha")
	serial.U64(1)
	serial.I64s([]int64{2, 3, 4})
	serial.Section("beta")
	serial.F64(2.5)
	serial.Section("gamma")
	serial.U8s([]byte{9, 8, 7})
	want := serial.Finish()

	head := snapshot.NewWriter(64)
	head.Section("alpha")
	head.U64(1)
	head.I64s([]int64{2, 3, 4})
	frag1 := snapshot.NewRawWriter(64)
	frag1.Section("beta")
	frag1.F64(2.5)
	frag2 := snapshot.NewRawWriter(64)
	frag2.Section("gamma")
	frag2.U8s([]byte{9, 8, 7})
	got := snapshot.Seal(nil, [][]byte{head.Frame(), frag1.Frame(), frag2.Frame()})
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed fragments differ from the serial encoding: %d vs %d bytes", len(got), len(want))
	}

	// A recycled destination produces the same bytes.
	recycled := snapshot.Seal(make([]byte, 0, 4096), [][]byte{head.Frame(), frag1.Frame(), frag2.Frame()})
	if !bytes.Equal(recycled, want) {
		t.Fatal("Seal into a recycled buffer diverges")
	}
}

// TestSealRecyclesGrowingBuffer pins the seal buffer's growth policy: a
// periodic checkpoint's bases grow by a few hundred bytes each, and one
// recycled destination must absorb that with a handful of backing
// arrays, not one per base, while every sealed output stays byte-identical to a
// single Writer's.
func TestSealRecyclesGrowingBuffer(t *testing.T) {
	const (
		seals  = 64
		grow   = 40 // int64s per seal: 320 bytes
		maxNew = 8  // backing arrays allowed, the first one included
	)
	var dst []byte
	arrays := 0
	for i := 0; i < seals; i++ {
		body := make([]int64, 2000+grow*i)
		for j := range body {
			body[j] = int64(i*j + 1)
		}
		serial := snapshot.NewWriter(0)
		serial.Section("head")
		serial.U64(uint64(i))
		serial.Section("body")
		serial.I64s(body)
		want := serial.Finish()

		head := snapshot.NewWriter(0)
		head.Section("head")
		head.U64(uint64(i))
		frag := snapshot.NewRawWriter(0)
		frag.Section("body")
		frag.I64s(body)
		parts := [][]byte{head.Frame(), frag.Frame()}

		out := snapshot.Seal(dst, parts)
		if !bytes.Equal(out, want) {
			t.Fatalf("seal %d differs from the serial encoding: %d vs %d bytes", i, len(out), len(want))
		}
		if len(out) != snapshot.SealedLen(parts) {
			t.Fatalf("seal %d: %d bytes, SealedLen says %d", i, len(out), snapshot.SealedLen(parts))
		}
		if cap(dst) == 0 || &out[:1][0] != &dst[:1][0] {
			arrays++
		}
		dst = out
	}
	if arrays > maxNew {
		t.Fatalf("%d growing seals into one recycled buffer allocated %d backing arrays, want at most %d", seals, arrays, maxNew)
	}
}

// TestWriterReset pins buffer recycling: a Reset writer re-emits the
// header (or stays raw) and reproduces identical bytes.
func TestWriterReset(t *testing.T) {
	w := snapshot.NewWriter(64)
	w.Section("x")
	w.U64(42)
	first := append([]byte(nil), w.Finish()...)
	w.Reset()
	w.Section("x")
	w.U64(42)
	if again := w.Finish(); !bytes.Equal(again, first) {
		t.Fatal("reset writer produced different bytes")
	}

	raw := snapshot.NewRawWriter(64)
	raw.Section("y")
	raw.U64(7)
	rawFirst := append([]byte(nil), raw.Frame()...)
	raw.Reset()
	raw.Section("y")
	raw.U64(7)
	if !bytes.Equal(raw.Frame(), rawFirst) {
		t.Fatal("reset raw writer produced different bytes")
	}
	if len(rawFirst) >= len(first) {
		t.Fatal("raw fragment should not carry the file header")
	}
}

// TestChainStoreRoundTrip pins the file store: Load returns the base last
// written at Path as a one-link chain, a new base replaces it, delta files
// an older build left beside it are never read, and a corrupted base is
// refused at Load rather than handed to the caller.
func TestChainStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := &snapshot.ChainStore{Path: filepath.Join(dir, "run.snap")}
	first := mkBase(0x77)
	if err := st.WriteBase(first); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], first) {
		t.Fatalf("loaded %d links, want the base back byte for byte", len(got))
	}

	// A stale delta beside the base is ignored; a new base replaces the old.
	if err := os.WriteFile(st.Path+".d001", mkDelta(first, 0x77), 0o644); err != nil {
		t.Fatal(err)
	}
	next := mkBase(0x88)
	if err := st.WriteBase(next); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], next) {
		t.Fatalf("the store holds %d links, want just the new base", len(got))
	}

	// Corruption on disk is refused at Load.
	evil := append([]byte(nil), next...)
	evil[len(evil)/2] ^= 0x40
	if err := os.WriteFile(st.Path, evil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("store loaded a corrupted base")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	if err := snapshot.WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("read %q, want %q", got, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}
