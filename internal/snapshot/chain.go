package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Delta checkpoint chains. A chain is a base snapshot plus K delta
// snapshots, each a complete CP2PSNAP file (magic, version, CRC trailer)
// whose first section is a link header tying it to its predecessor:
//
//	base:  kind=LinkBase,  id=<capture identity>, index=0, prevCRC=0
//	delta: kind=LinkDelta, id=<base's id>,        index=k, prevCRC=<link k-1's trailer>
//
// Three independent guards make a mis-restore structurally impossible:
// every link's own CRC trailer rejects torn or corrupted files, the id
// match rejects deltas chained to a different (e.g. stale, pre-rebase)
// base, and the prevCRC hash chain plus contiguous indices reject
// reordered, skipped, or cross-chain links.

// LinkKind distinguishes chain link roles.
type LinkKind uint8

const (
	// LinkBase is a full snapshot anchoring a chain.
	LinkBase LinkKind = iota
	// LinkDelta is a dirty-segment delta relative to its predecessor.
	LinkDelta
)

// LinkHeader identifies a snapshot's position in a delta chain.
type LinkHeader struct {
	// Kind is the link role.
	Kind LinkKind
	// ID identifies the chain: the base's deterministic capture identity,
	// repeated by every delta chained to it.
	ID uint64
	// Index is the link's position: 0 for the base, k for the k-th delta.
	Index uint32
	// PrevCRC is the previous link's checksum trailer; 0 for the base.
	PrevCRC uint64
}

// LinkHeader emits the chain-link section; it must be the first section of
// a chained snapshot.
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

// PeekLink opens a link and reads just its header, returning it with the
// link's checksum trailer.
func PeekLink(data []byte) (LinkHeader, uint64, error) {
	r, err := Open(data)
	if err != nil {
		return LinkHeader{}, 0, err
	}
	h := r.LinkHeader()
	if err := r.Err(); err != nil {
		return LinkHeader{}, 0, err
	}
	return h, r.Checksum(), nil
}

// ValidateChain verifies a base+deltas chain's integrity without touching
// any simulation state: every link's checksum, the base/delta kinds, the
// contiguous 1-based delta indices, the chain-id match, and the prevCRC
// hash chain. Any corruption, reordering, truncation of a middle link, or
// mix-in from another chain fails with an error naming the link.
func ValidateChain(chain [][]byte) error {
	if len(chain) == 0 {
		return errors.New("snapshot: empty chain")
	}
	base, prevCRC, err := PeekLink(chain[0])
	if err != nil {
		return fmt.Errorf("snapshot: chain link 0 (base): %w", err)
	}
	if base.Kind != LinkBase {
		return fmt.Errorf("snapshot: chain link 0 has kind %d, want a base", base.Kind)
	}
	if base.Index != 0 || base.PrevCRC != 0 {
		return fmt.Errorf("snapshot: chain base has index %d prevCRC %016x, want 0/0", base.Index, base.PrevCRC)
	}
	for k := 1; k < len(chain); k++ {
		h, sum, err := PeekLink(chain[k])
		if err != nil {
			return fmt.Errorf("snapshot: chain link %d: %w", k, err)
		}
		if h.Kind != LinkDelta {
			return fmt.Errorf("snapshot: chain link %d has kind %d, want a delta", k, h.Kind)
		}
		if h.ID != base.ID {
			return fmt.Errorf("snapshot: chain link %d belongs to chain %016x, base is %016x (stale delta from before a re-base?)", k, h.ID, base.ID)
		}
		if h.Index != uint32(k) {
			return fmt.Errorf("snapshot: chain link %d carries index %d — links are missing or reordered", k, h.Index)
		}
		if h.PrevCRC != prevCRC {
			return fmt.Errorf("snapshot: chain link %d expects predecessor CRC %016x but link %d sealed as %016x — links are reordered or from different captures", k, h.PrevCRC, k-1, prevCRC)
		}
		prevCRC = sum
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

// ChainSink receives sealed checkpoint links. ChainStore satisfies it for
// file-backed chains; tests use in-memory sinks. The sharded kernel's
// Checkpointer writes from its writer goroutine, never concurrently with
// itself; the single-threaded engines write every capture as a base. The
// data slice may be a recycled buffer reused once the write returns — a
// sink that keeps the bytes must copy them.
type ChainSink interface {
	// WriteBase persists a new chain base, invalidating prior deltas.
	WriteBase(data []byte) error
	// WriteDelta persists the index-th delta (1-based) of the current base.
	WriteDelta(index int, data []byte) error
}

// ChainStore persists a checkpoint chain as files: the base at Path and
// the k-th delta at Path.d<k> (three-digit, e.g. run.snap.d001). Every
// write is atomic and fsynced; writing a new base prunes the previous
// chain's deltas first, so a crash between the prune and the base write
// leaves the old base (still valid alone) rather than a new base with
// stale deltas — which the id check would refuse anyway.
type ChainStore struct {
	// Path is the base snapshot path.
	Path string
}

// deltaPath names the k-th delta file.
func (st *ChainStore) deltaPath(index int) string {
	return fmt.Sprintf("%s.d%03d", st.Path, index)
}

// WriteBase atomically persists a new base and prunes any deltas of the
// previous chain.
func (st *ChainStore) WriteBase(data []byte) error {
	for k := 1; ; k++ {
		if err := os.Remove(st.deltaPath(k)); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return err
		}
	}
	return WriteFileAtomic(st.Path, data)
}

// WriteDelta atomically persists the index-th delta (1-based).
func (st *ChainStore) WriteDelta(index int, data []byte) error {
	if index < 1 {
		return fmt.Errorf("snapshot: delta index %d, want >= 1", index)
	}
	return WriteFileAtomic(st.deltaPath(index), data)
}

// Load reads the stored chain — the base plus every contiguous delta — and
// validates it end to end before returning. Corruption anywhere in the
// stored files is an error, never a silent restore from a prefix.
func (st *ChainStore) Load() ([][]byte, error) {
	base, err := os.ReadFile(st.Path)
	if err != nil {
		return nil, err
	}
	chain := [][]byte{base}
	for k := 1; ; k++ {
		d, err := os.ReadFile(st.deltaPath(k))
		if err != nil {
			if os.IsNotExist(err) {
				break
			}
			return nil, err
		}
		chain = append(chain, d)
	}
	if err := ValidateChain(chain); err != nil {
		return nil, err
	}
	return chain, nil
}
