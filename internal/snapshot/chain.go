package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint chains. A checkpoint is one base: a complete CP2PSNAP file
// (magic, version, CRC trailer) whose first section is a link header
//
//	kind=LinkBase, id=<capture identity>, index=0, prevCRC=0
//
// A chain is the list of links a restore reads, and it holds exactly one
// base. The header's index and prevCRC fields are kept (always zero) so
// the byte layout of a base is unchanged. ValidateChain refuses any other
// shape, so a chain that still carries the delta links an older build
// wrote is refused rather than half-restored.

// LinkKind is a chain link's role.
type LinkKind uint8

// LinkBase is a full snapshot: the only link kind this build writes or
// restores.
const LinkBase LinkKind = 0

// LinkHeader identifies a snapshot as a checkpoint link.
type LinkHeader struct {
	// Kind is the link role.
	Kind LinkKind
	// ID is the base's deterministic capture identity.
	ID uint64
	// Index is 0 for a base.
	Index uint32
	// PrevCRC is 0 for a base.
	PrevCRC uint64
}

// LinkHeader emits the chain-link section; it must be the first section of
// a checkpoint.
func (w *Writer) LinkHeader(h LinkHeader) {
	w.Section("chain")
	w.U8(uint8(h.Kind))
	w.U64(h.ID)
	w.U32(h.Index)
	w.U64(h.PrevCRC)
}

// LinkHeader consumes the chain-link section.
func (r *Reader) LinkHeader() LinkHeader {
	r.Section("chain")
	return LinkHeader{
		Kind:    LinkKind(r.U8()),
		ID:      r.U64(),
		Index:   r.U32(),
		PrevCRC: r.U64(),
	}
}

// ValidateChain verifies a checkpoint chain without touching any
// simulation state: it must hold exactly one link, that link's checksum
// must verify, and its header must be a base's (kind base, index 0,
// prevCRC 0). A chain of several links, or a link of any other kind — the
// delta links an older build wrote — is refused with an error that says a
// checkpoint is one base.
func ValidateChain(chain [][]byte) error {
	if len(chain) == 0 {
		return errors.New("snapshot: empty chain")
	}
	if len(chain) > 1 {
		return fmt.Errorf("snapshot: chain of %d links — a checkpoint is one base; restore from the base alone", len(chain))
	}
	r, err := Open(chain[0])
	if err != nil {
		return fmt.Errorf("snapshot: chain link 0 (base): %w", err)
	}
	base := r.LinkHeader()
	if err := r.Err(); err != nil {
		return fmt.Errorf("snapshot: chain link 0 (base): %w", err)
	}
	if base.Kind != LinkBase {
		return fmt.Errorf("snapshot: chain link 0 has kind %d, want a base — a checkpoint is one base", base.Kind)
	}
	if base.Index != 0 || base.PrevCRC != 0 {
		return fmt.Errorf("snapshot: chain base has index %d prevCRC %016x, want 0/0", base.Index, base.PrevCRC)
	}
	return nil
}

// WriteFileAtomic writes data to path via a write-to-temp, fsync,
// rename, fsync-directory sequence: a crash at any point leaves either the
// previous file or the complete new one — never a torn write under a valid
// name, and never a rename whose directory entry outlives a power cut
// while the data didn't.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ChainSink receives sealed checkpoints, each a base that supersedes the
// previous one. ChainStore satisfies it for file-backed checkpoints; tests
// use in-memory sinks. The sharded kernel's Checkpointer writes from its
// writer goroutine, never concurrently with itself. The data slice may be
// a recycled buffer reused once the write returns — a sink that keeps the
// bytes must copy them.
type ChainSink interface {
	// WriteBase persists a new base, replacing the previous one.
	WriteBase(data []byte) error
}

// ChainStore persists a checkpoint as one file at Path. Every write is
// atomic and fsynced, so a crash leaves either the previous base or the
// new one. Files named Path.dNNN that an older build wrote beside the base
// (delta links) are never read; they can be deleted.
type ChainStore struct {
	// Path is the base snapshot path.
	Path string
}

// WriteBase atomically persists a new base.
func (st *ChainStore) WriteBase(data []byte) error {
	return WriteFileAtomic(st.Path, data)
}

// Load reads the stored base as a one-link chain and validates it before
// returning. Corruption is an error, never a silent restore.
func (st *ChainStore) Load() ([][]byte, error) {
	base, err := os.ReadFile(st.Path)
	if err != nil {
		return nil, err
	}
	chain := [][]byte{base}
	if err := ValidateChain(chain); err != nil {
		return nil, err
	}
	return chain, nil
}
