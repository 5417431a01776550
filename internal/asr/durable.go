package asr

import (
	"encoding/json"
	"fmt"
	"os"

	"asr/internal/gom"
	"asr/internal/storage"
)

// Durable index topology. The page file (FileDisk) and its WAL persist
// the partition pages themselves; what they cannot record is which
// pages mean what. The manifest fills that gap: a small JSON document
// naming every partition (with the stable meta page anchoring its
// trees, see Partition.syncMetaLocked) and every index (path,
// extension, decomposition, and where each partition is placed).
// Physically shared partitions (§5.4) appear once in the partition
// table and are referenced from each sharing index, so sharing
// survives a save/open cycle.
//
// The manifest is deliberately tiny and rewritten atomically
// (storage.AtomicWriteFile): all bulk state lives behind the meta pages, so SaveTo
// after the initial save costs a checkpoint plus one small file write,
// no matter how large the indexes are.

// manifestVersion is bumped when the manifest layout changes.
const manifestVersion = 1

type manifestPartition struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Meta  uint64 `json:"meta"` // durable meta page id
}

type manifestPlacement struct {
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
	Part int `json:"part"` // index into the partition table
}

type manifestIndex struct {
	Path  string              `json:"path"` // dot notation, t_0.A_1...A_n
	Ext   string              `json:"ext"`  // can|full|left|right
	Dec   []int               `json:"dec"`  // decomposition boundaries
	Parts []manifestPlacement `json:"parts"`
}

type manifest struct {
	Version    int                 `json:"version"`
	Partitions []manifestPartition `json:"partitions"`
	Indexes    []manifestIndex     `json:"indexes"`
}

// ParseExtension parses the paper's extension abbreviation (the inverse
// of Extension.String).
func ParseExtension(s string) (Extension, error) {
	for _, e := range Extensions {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("asr: extension %q, want can|full|left|right", s)
}

// SaveTo makes the managed indexes durable: it checkpoints the buffer
// pool (every dirty frame reaches the page file, the device syncs, and
// — when a WAL is attached and no transaction is active — the log
// is recycled) and then writes the index topology manifest to path,
// atomically via a temp file and rename.
//
// Must be called with object-base mutation quiesced (the single-writer
// rule); concurrent readers are safe. After SaveTo returns, Recover on
// the page file plus OpenFrom on the manifest reconstruct the manager
// exactly — or, if the process dies later, to the last committed
// maintenance transaction.
func (m *Manager) SaveTo(path string) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.pool.Checkpoint(); err != nil {
		return fmt.Errorf("asr: save %s: checkpoint: %w", path, err)
	}
	man := manifest{Version: manifestVersion}
	partID := map[*Partition]int{}
	for _, e := range m.entries {
		mi := manifestIndex{
			Path: e.ix.path.String(),
			Ext:  e.ix.ext.String(),
			Dec:  append([]int(nil), e.ix.dec...),
		}
		for _, pp := range e.ix.Partitions() {
			id, ok := partID[pp.Part]
			if !ok {
				meta := pp.Part.MetaPage()
				if meta.IsNil() {
					return fmt.Errorf("asr: save %s: partition %s has no meta page", path, pp.Part.Name())
				}
				id = len(man.Partitions)
				partID[pp.Part] = id
				man.Partitions = append(man.Partitions, manifestPartition{
					Name:  pp.Part.Name(),
					Arity: pp.Part.Arity(),
					Meta:  uint64(meta),
				})
			}
			mi.Parts = append(mi.Parts, manifestPlacement{Lo: pp.Lo, Hi: pp.Hi, Part: id})
		}
		man.Indexes = append(man.Indexes, mi)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("asr: save %s: %w", path, err)
	}
	if err := storage.AtomicWriteFile(path, append(data, '\n'), nil, manifestWriteHook); err != nil {
		return fmt.Errorf("asr: save %s: %w", path, err)
	}
	return nil
}

// manifestWriteHook, when non-nil, is handed to storage.AtomicWriteFile
// as its stage callback ("written", "synced", "renamed") so
// crash-injection tests can kill the process-equivalent at any point of
// the manifest's write→fsync→rename→dir-fsync sequence.
var manifestWriteHook func(stage string) error

// OpenFrom rebuilds a Manager from a manifest written by SaveTo: every
// partition is reopened from its durable meta page on pool (one
// validating walk of both its trees; no row is retained — the trees
// are the only copy), every index is reconstructed over the shared
// partition set, and the Manager registers with ob (NewManager) so the
// indexes track ob again; a failed open registers nothing.
//
// A partition whose stored rows fail that walk — a page failing its
// checksum after a crash, typically one Recover reported in
// RecoveryInfo.QuarantinedPages — does not fail the open: the owning
// indexes come up quarantined (queries route around them, degraded)
// and Manager.Repair rebuilds the partition from the live object base.
// Only a damaged meta page or a malformed manifest is a hard error.
func OpenFrom(ob *gom.ObjectBase, pool *storage.BufferPool, path string) (*Manager, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("asr: open %s: %w", path, err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("asr: open %s: %w", path, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("asr: open %s: manifest version %d, want %d", path, man.Version, manifestVersion)
	}
	parts := make([]*Partition, len(man.Partitions))
	perrs := make([]error, len(man.Partitions))
	for i, mp := range man.Partitions {
		p, perr := openPartition(pool, mp.Name, mp.Arity, storage.PageID(mp.Meta))
		if p == nil {
			return nil, fmt.Errorf("asr: open %s: %w", path, perr)
		}
		parts[i], perrs[i] = p, perr
	}
	var entries []*managedIndex
	schema := ob.Schema()
	for _, mi := range man.Indexes {
		pe, err := gom.ParsePath(schema, mi.Path)
		if err != nil {
			return nil, fmt.Errorf("asr: open %s: %w", path, err)
		}
		ext, err := ParseExtension(mi.Ext)
		if err != nil {
			return nil, fmt.Errorf("asr: open %s: index on %s: %w", path, mi.Path, err)
		}
		dec := Decomposition(append([]int(nil), mi.Dec...))
		if err := dec.Validate(pe.Arity() - 1); err != nil {
			return nil, fmt.Errorf("asr: open %s: index on %s: %w", path, mi.Path, err)
		}
		ix := &Index{ob: ob, path: pe, ext: ext, dec: dec, pool: pool}
		var damaged error
		for _, pl := range mi.Parts {
			if pl.Part < 0 || pl.Part >= len(parts) {
				return nil, fmt.Errorf("asr: open %s: index on %s: placement references partition %d of %d",
					path, mi.Path, pl.Part, len(parts))
			}
			if perrs[pl.Part] != nil && damaged == nil {
				damaged = perrs[pl.Part]
			}
			p := parts[pl.Part]
			p.acquire()
			ix.parts = append(ix.parts, PlacedPartition{Lo: pl.Lo, Hi: pl.Hi, Part: p})
		}
		if damaged != nil {
			ix.quarantine(fmt.Errorf("asr: index on %s: opened with damaged partition (run Repair): %w", pe, damaged))
		}
		entries = append(entries, &managedIndex{ix: ix})
	}
	m := NewManager(ob, pool)
	m.entries = entries
	return m, nil
}
