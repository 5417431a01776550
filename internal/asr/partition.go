package asr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"asr/internal/btree"
	"asr/internal/gom"
	"asr/internal/relation"
	"asr/internal/storage"
)

// Partition is one stored piece E^{lo,hi}_X of a decomposed access
// support relation: the projection of the logical extension onto a
// column window, materialized in two redundant B⁺-trees — one clustered
// on the first column (fast lookup of all partial paths originating in
// an object) and one on the last (fast lookup of all partial paths
// leading to an object), following Valduriez's join-index storage
// (§5.2).
//
// A Partition knows only its arity, not which path columns it covers:
// the owning Index records the placement. That separation is what allows
// one physical partition to be shared between overlapping path
// expressions at different column offsets (§5.4).
//
// Because a projected row may be shared by several logical rows (and,
// when shared, by several paths), the partition keeps a reference count
// per row; the trees hold exactly the rows with a positive count. The
// count is the row's forward-tree value. The two trees are the only
// copy of the rows: nothing about them is kept in the Go heap, so every
// row and every count a partition serves or maintains is read through
// the buffer pool and priced in page accesses.
//
// A Partition is safe for concurrent use: the lookup and scan methods
// take a read lock, the mutators (AddProjected, maintenance's net row
// adjustments, and the ownership transitions) take the write lock.
// Because a partition may be physically shared by two indexes (§5.4),
// this lock — not the owning Index's — is what protects readers of one
// index from the maintenance of another index sharing the same partition.
type Partition struct {
	mu       sync.RWMutex
	name     string
	arity    int
	pool     *storage.BufferPool
	meta     storage.PageID // durable root-catalog page, see syncMetaLocked
	metaSeen [6]uint64      // last state written to the meta page
	fwd      *btree.Tree    // clustered on column 0; value = reference count
	bwd      *btree.Tree    // clustered on the last column
	owners   int            // indexes this partition is placed in (§5.4 sharing)
}

// Durable partition state. Each partition owns one meta page recording
// both trees' root/height/count, rewritten (inside the maintenance
// undo transaction, so the WAL covers root splits) whenever they
// change. The manifest a Manager.SaveTo writes references this stable
// page id, never a tree root directly — roots move, the meta page does
// not. Reference counts are not in the meta page: they live as the
// forward tree's values (4-byte big-endian counts).
//
// Meta page layout:
//
//	magic(4) formatVersion(4) arity(4) pad(4) state(6×8)
//
// formatVersion is the B⁺-tree page-format version the partition's
// trees were written with (btree.FormatVersion). openPartition
// soft-rejects any other version — the partition comes up empty and
// quarantined, wrapping btree.ErrPageFormat, and Index.Repair/
// Manager.Repair rebuilds it from the live object base in the current
// format. The old trees' pages cannot be parsed for reclamation and are
// leaked, exactly like pages behind a corrupt node.
const partMetaMagic = 0x41535251 // "ASRQ"

// refcntVal encodes a row's reference count as the forward tree value.
func refcntVal(cnt int) []byte {
	var b [4]byte
	b[0] = byte(cnt >> 24)
	b[1] = byte(cnt >> 16)
	b[2] = byte(cnt >> 8)
	b[3] = byte(cnt)
	return b[:]
}

// decodeRefcnt is the inverse of refcntVal.
func decodeRefcnt(v []byte) (int, error) {
	if len(v) != 4 {
		return 0, fmt.Errorf("asr: reference-count value is %d bytes, want 4", len(v))
	}
	return int(v[0])<<24 | int(v[1])<<16 | int(v[2])<<8 | int(v[3]), nil
}

// MetaPage returns the id of the partition's durable meta page
// (NilPage for partitions created before a pool was recorded — not
// produced by any current constructor).
func (p *Partition) MetaPage() storage.PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.meta
}

// metaState renders the tree metadata the meta page persists.
func (p *Partition) metaState() [6]uint64 {
	return [6]uint64{
		uint64(p.fwd.Root()), uint64(p.fwd.Height()), uint64(p.fwd.Len()),
		uint64(p.bwd.Root()), uint64(p.bwd.Height()), uint64(p.bwd.Len()),
	}
}

// syncMetaLocked rewrites the meta page when the tree metadata moved;
// must be called with p.mu held (or before the partition is shared).
// The write goes through the pool, so an active undo transaction
// captures it and a WAL commit logs it with the data pages it
// describes.
func (p *Partition) syncMetaLocked() error {
	if p.meta.IsNil() {
		return nil
	}
	st := p.metaState()
	if st == p.metaSeen {
		return nil
	}
	fr, err := p.pool.Get(p.meta)
	if err != nil {
		return fmt.Errorf("asr: partition %s: meta page: %w", p.name, err)
	}
	buf := fr.Data()
	binary.BigEndian.PutUint32(buf[0:], partMetaMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(btree.FormatVersion()))
	binary.BigEndian.PutUint32(buf[8:], uint32(p.arity))
	binary.BigEndian.PutUint32(buf[12:], 0)
	for i, v := range st {
		binary.BigEndian.PutUint64(buf[16+8*i:], v)
	}
	fr.MarkDirty()
	fr.Unpin()
	p.metaSeen = st
	return nil
}

// openPartition reattaches a partition persisted earlier: tree roots
// from the meta page, then one validating walk of both trees that reads
// every page through the pool (which verifies its checksum) and checks
// every stored key and count in place, decoding and retaining none. The
// walk is what turns a page recovery could not heal into a quarantined
// index instead of a failed query later: on a walk error the partition
// is returned WITH the error, so the caller can wire it up and
// quarantine the owning index for Repair. A meta page recording another
// page-format version takes the same soft path: the partition comes up
// empty with an error wrapping btree.ErrPageFormat, and Repair rebuilds
// it in the current format.
func openPartition(pool *storage.BufferPool, name string, arity int, meta storage.PageID) (*Partition, error) {
	fr, err := pool.Get(meta)
	if err != nil {
		return nil, fmt.Errorf("asr: partition %s: meta page %v: %w", name, meta, err)
	}
	buf := fr.Data()
	if binary.BigEndian.Uint32(buf[0:]) != partMetaMagic {
		fr.Unpin()
		return nil, fmt.Errorf("asr: partition %s: page %v is not a partition meta page", name, meta)
	}
	if got := int(binary.BigEndian.Uint32(buf[4:])); got != btree.FormatVersion() {
		fr.Unpin()
		return emptyFormatReject(pool, name, arity, meta,
			fmt.Errorf("asr: partition %s: meta page %v records page-format v%d, this build reads v%d: %w",
				name, meta, got, btree.FormatVersion(), btree.ErrPageFormat))
	}
	if got := int(binary.BigEndian.Uint32(buf[8:])); got != arity {
		fr.Unpin()
		return nil, fmt.Errorf("asr: partition %s: meta arity %d, manifest says %d", name, got, arity)
	}
	var st [6]uint64
	for i := range st {
		st[i] = binary.BigEndian.Uint64(buf[16+8*i:])
	}
	fr.Unpin()
	p := &Partition{
		name:     name,
		arity:    arity,
		pool:     pool,
		meta:     meta,
		metaSeen: st,
		fwd:      btree.Open(pool, name+".fwd", storage.PageID(st[0]), int(st[1]), int(st[2])),
		bwd:      btree.Open(pool, name+".bwd", storage.PageID(st[3]), int(st[4]), int(st[5])),
	}
	for _, tr := range []*btree.Tree{p.fwd, p.bwd} {
		var ferr error
		err := tr.Scan(func(k, v []byte) bool {
			if ferr = checkKey(k, arity); ferr == nil && tr == p.fwd {
				_, ferr = decodeRefcnt(v)
			}
			return ferr == nil
		})
		if err = cmp.Or(err, ferr); err != nil {
			return p, fmt.Errorf("asr: partition %s: loading rows: %w", name, err)
		}
	}
	return p, nil
}

// scanRows streams one clustered tree's stored rows in key order,
// decoded; rot is the column the tree is clustered on. The tuple handed
// to fn is owned, the value v is borrowed (btree.Visit). It is the
// caller's business to hold p.mu.
func (p *Partition) scanRows(tr *btree.Tree, rot int, fn func(t relation.Tuple, v []byte) error) error {
	var ferr error
	err := tr.Scan(func(k, v []byte) bool {
		t, err := decodeTuple(k, p.arity, rot)
		if err == nil {
			err = fn(t, v)
		}
		ferr = err
		return err == nil
	})
	if err == nil {
		err = ferr
	}
	return err
}

// emptyFormatReject wires up a partition whose stored trees are in an
// unreadable page format: empty NilPage-rooted trees (so Drop during a
// later reloadBulk is a no-op — the unreadable pages cannot be walked
// for reclamation and leak), the original meta page retained so Repair
// rewrites it in place in the current layout. Returned WITH the format
// error so OpenFrom quarantines the owning indexes.
func emptyFormatReject(pool *storage.BufferPool, name string, arity int, meta storage.PageID, ferr error) (*Partition, error) {
	return &Partition{
		name:  name,
		arity: arity,
		pool:  pool,
		meta:  meta,
		fwd:   btree.Open(pool, name+".fwd", storage.NilPage, 0, 0),
		bwd:   btree.Open(pool, name+".bwd", storage.NilPage, 0, 0),
	}, ferr
}

// allocMetaPage reserves the partition's durable meta page — before
// the trees, so the catalog page gets the lowest (and therefore most
// stable across rebuilds) id of the partition's pages.
func allocMetaPage(pool *storage.BufferPool) (storage.PageID, error) {
	fr, err := pool.GetNew()
	if err != nil {
		return storage.NilPage, err
	}
	id := fr.ID()
	fr.Unpin()
	return id, nil
}

// NewPartitionBulk creates a partition holding the given reference-
// counted rows (rows and refcnt share their keys), bulk-loading both
// clustered trees in one sequential pass each — the fast path used when
// an access support relation is first materialized.
func NewPartitionBulk(pool *storage.BufferPool, name string, arity int, rows map[string]relation.Tuple, refcnt map[string]int) (*Partition, error) {
	if arity < 2 {
		return nil, fmt.Errorf("asr: partition %s: arity %d, want ≥ 2", name, arity)
	}
	meta, err := allocMetaPage(pool)
	if err != nil {
		return nil, err
	}
	p := &Partition{name: name, arity: arity, pool: pool, meta: meta}
	if p.fwd, p.bwd, err = bulkTrees(pool, name, arity, rows, refcnt); err != nil {
		return nil, err
	}
	if err := p.syncMetaLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// bulkTrees turns reference-counted rows into the partition's two
// clustered trees: encode each row once per clustering, sort, bulk-load.
func bulkTrees(pool *storage.BufferPool, name string, arity int, rows map[string]relation.Tuple, refcnt map[string]int) (fwd, bwd *btree.Tree, err error) {
	fwdEntries := make([]btree.KV, 0, len(rows))
	bwdEntries := make([]btree.KV, 0, len(rows))
	for k, row := range rows {
		if len(row) != arity {
			return nil, nil, fmt.Errorf("asr: partition %s: row arity %d, want %d", name, len(row), arity)
		}
		cnt := refcnt[k]
		if cnt <= 0 {
			return nil, nil, fmt.Errorf("asr: partition %s: row %v has reference count %d", name, row, cnt)
		}
		fk, err := encodeTuple(row, 0)
		if err != nil {
			return nil, nil, err
		}
		bk, err := encodeTuple(row, arity-1)
		if err != nil {
			return nil, nil, err
		}
		fwdEntries = append(fwdEntries, btree.KV{Key: fk, Val: refcntVal(cnt)})
		bwdEntries = append(bwdEntries, btree.KV{Key: bk})
	}
	sortKVs(fwdEntries)
	sortKVs(bwdEntries)
	if fwd, err = btree.BulkLoad(pool, name+".fwd", fwdEntries); err != nil {
		return nil, nil, err
	}
	if bwd, err = btree.BulkLoad(pool, name+".bwd", bwdEntries); err != nil {
		return nil, nil, err
	}
	return fwd, bwd, nil
}

func sortKVs(kvs []btree.KV) {
	sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
}

// Name returns the partition name.
func (p *Partition) Name() string { return p.name }

// Owners returns how many indexes currently place this partition.
func (p *Partition) Owners() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.owners
}

// acquire/release track index placements; the last release drops the
// trees and reclaims their pages.
func (p *Partition) acquire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.owners++
}

func (p *Partition) release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.owners > 0 {
		p.owners--
	}
	if p.owners > 0 {
		return nil
	}
	if err := p.fwd.Drop(); err != nil {
		return err
	}
	if err := p.bwd.Drop(); err != nil {
		return err
	}
	if !p.meta.IsNil() {
		if err := p.pool.Discard(p.meta); err != nil {
			return err
		}
		if err := p.pool.Disk().Free(p.meta); err != nil {
			return err
		}
		p.meta = storage.NilPage
	}
	return nil
}

// Arity returns the partition's column count.
func (p *Partition) Arity() int { return p.arity }

// Rows returns the number of distinct stored rows.
func (p *Partition) Rows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.fwd.Len()
}

// Forward returns the tree clustered on the first column.
func (p *Partition) Forward() *btree.Tree { return p.fwd }

// Backward returns the tree clustered on the last column.
func (p *Partition) Backward() *btree.Tree { return p.bwd }

// AddProjected increments the reference count of a projected row,
// inserting it into both trees when it becomes live. All-NULL rows are
// ignored (they describe no path segment).
func (p *Partition) AddProjected(row relation.Tuple) error {
	return p.adjust(row, +1)
}

// adjust moves a projected row's stored reference count by delta — an
// update's net change to the row, of any size — in one read-modify-
// write descent of the forward tree; only a row being born or dying
// also touches the backward tree. A surviving count keeps its 4-byte
// length, so the B⁺-tree rewrites it in place on the leaf: no decode, no
// split. A delta taking the count below zero removes a row the
// partition does not track: the tree is left as it was and the error
// fails the maintenance transaction.
func (p *Partition) adjust(row relation.Tuple, delta int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(row) != p.arity {
		return fmt.Errorf("asr: partition %s: row arity %d, want %d", p.name, len(row), p.arity)
	}
	if row.IsAllNull() {
		return nil
	}
	fk, err := encodeTuple(row, 0)
	if err != nil {
		return err
	}
	var born, died bool
	var cerr error
	err = p.fwd.Update(fk, func(old []byte, found bool) ([]byte, bool) {
		cnt := 0
		if found {
			cnt, cerr = decodeRefcnt(old)
		}
		if cerr == nil && cnt+delta < 0 {
			cerr = fmt.Errorf("asr: partition %s: removing untracked row %v", p.name, row)
		}
		if cerr != nil {
			return old, found // leave the entry, or its absence, as it is
		}
		cnt += delta
		born, died = !found, found && cnt == 0
		return refcntVal(cnt), cnt > 0
	})
	if err == nil {
		err = cerr
	}
	if err != nil || !(born || died) {
		return err
	}
	bk, err := encodeTuple(row, p.arity-1)
	if err != nil {
		return err
	}
	if born {
		_, err = p.bwd.Insert(bk, nil)
	} else {
		_, err = p.bwd.Delete(bk)
	}
	if err != nil {
		return err
	}
	return p.syncMetaLocked()
}

// treeMarks snapshots both clustered trees' mutable metadata (root,
// height, count) so a rollback can rewind them alongside the page
// restore. Taken once per partition per maintenance transaction.
type treeMarks struct {
	p        *Partition
	fwd, bwd btree.Mark
}

// marks must be called by the single maintenance writer.
func (p *Partition) marks() treeMarks {
	return treeMarks{p: p, fwd: p.fwd.Mark(), bwd: p.bwd.Mark()}
}

// restoreLocked rewinds both trees; the caller must hold p.mu. The
// meta-page cache is poisoned: the undo transaction restored the
// page's bytes behind syncMetaLocked's back, and a retry could rebuild
// an identical-looking tree state out of recycled page ids — the next
// sync must write unconditionally.
func (m treeMarks) restoreLocked() {
	m.p.fwd.Restore(m.fwd)
	m.p.bwd.Restore(m.bwd)
	m.p.metaSeen = [6]uint64{}
}

// reloadBulk replaces the partition's stored rows wholesale: both
// clustered trees are bulk-loaded fresh from the given reference-counted
// rows, the old trees are dropped and their pages reclaimed. Building
// the new trees runs under an undo transaction, so a device failure
// mid-load leaves the old trees untouched and leaks no pages. Used by
// Index.Repair.
func (p *Partition) reloadBulk(pool *storage.BufferPool, rows map[string]relation.Tuple, refcnt map[string]int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	txn, err := pool.BeginUndo()
	if err != nil {
		return err
	}
	newFwd, newBwd, err := bulkTrees(pool, p.name, p.arity, rows, refcnt)
	if err != nil {
		return errors.Join(err, txn.Rollback())
	}
	// Point the meta page at the new trees inside the transaction, so
	// the WAL commit that covers their pages covers the catalog too —
	// and so a rollback restores the old roots.
	oldFwd, oldBwd := p.fwd, p.bwd
	oldSeen := p.metaSeen
	p.fwd, p.bwd = newFwd, newBwd
	err = p.syncMetaLocked()
	if err == nil {
		// Commit may fail when the WAL cannot make the reload durable;
		// the transaction is then still active and rollback restores the
		// pages and the meta page alike.
		err = txn.Commit()
	}
	if err != nil {
		err = errors.Join(err, txn.Rollback())
		p.fwd, p.bwd = oldFwd, oldBwd
		p.metaSeen = oldSeen
		return err
	}
	// Reclaim the old trees last: a failure here leaks pages but leaves
	// the partition fully consistent on the new trees. A corrupt page
	// in an old tree (the very reason Repair reloads) must not fail the
	// reload, so those leaks are accepted.
	return errors.Join(dropTolerant(oldFwd), dropTolerant(oldBwd))
}

// dropTolerant reclaims a tree's pages, swallowing corruption, crash,
// and page-format errors: the pages leak, which is recorded nowhere but
// harms nothing — the tree is unreachable.
func dropTolerant(t *btree.Tree) error {
	err := t.Drop()
	if err == nil || errors.Is(err, storage.ErrCorruptPage) || errors.Is(err, storage.ErrCrashed) ||
		errors.Is(err, btree.ErrPageFormat) {
		return nil
	}
	return err
}

// LookupBackward returns all stored rows whose last column equals v — a
// clustered prefix scan on the backward tree.
func (p *Partition) LookupBackward(v gom.Value) ([]relation.Tuple, error) {
	rowsets, err := p.LookupBatch(false, []gom.Value{v})
	if err != nil {
		return nil, err
	}
	return rowsets[0], nil
}

// LookupBatch resolves many probes in one pass over the tree clustered
// on the first column (fwd) or on the last (!fwd). The probes are
// sorted by encoded key inside btree.ScanPrefixes, so a probe landing in
// the leaf the previous one left pinned costs no page and every other
// costs one descent from the root. Results align with
// vals; a value with no stored rows yields a nil slice, and the rows of
// each slice come in the tree's key order.
func (p *Partition) LookupBatch(fwd bool, vals []gom.Value) ([][]relation.Tuple, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	tr, rot := p.fwd, 0
	if !fwd {
		tr, rot = p.bwd, p.arity-1
	}
	prefixes := make([][]byte, len(vals))
	for i, v := range vals {
		pf, err := encodePrefix(v)
		if err != nil {
			return nil, err
		}
		prefixes[i] = pf
	}
	out := make([][]relation.Tuple, len(vals))
	var derr error
	err := tr.ScanPrefixes(prefixes, func(i int, k, _ []byte) bool {
		t, err := decodeTuple(k, p.arity, rot)
		if err != nil {
			derr = err
			return false
		}
		out[i] = append(out[i], t)
		return true
	})
	if err == nil {
		err = derr
	}
	return out, err
}

// ScanAll iterates every stored row (forward-clustered order); fn
// returning false stops early.
func (p *Partition) ScanAll(fn func(relation.Tuple) bool) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var derr error
	err := p.fwd.Scan(func(k, _ []byte) bool {
		t, err := decodeTuple(k, p.arity, 0)
		if err != nil {
			derr = err
			return false
		}
		return fn(t)
	})
	if err == nil {
		err = derr
	}
	return err
}

// drift diffs the stored trees against want — the reference count every
// row of the partition should carry, keyed by Tuple.Key — by streaming
// the stored (row, count) pairs off the forward tree in one clustered
// pass. It reads storage, not a copy of it: a wrong stored count is
// Wrong, and a page that fails its checksum or a mangled node surfaces
// as the returned error as the pass reads it. The backward tree stores
// no counts; it gets the same row-set diff, which must agree with the
// forward tree's, and both trees get their structural walk (inner nodes
// included, which a leaf scan never reads).
func (p *Partition) drift(want map[string]int) (PartitionDrift, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	d := PartitionDrift{Name: p.name}
	var key []byte
	matched := 0
	err := p.scanRows(p.fwd, 0, func(t relation.Tuple, v []byte) error {
		key = t.AppendKey(key[:0])
		wc, ok := want[string(key)]
		if !ok {
			d.Extra++
			return nil
		}
		matched++
		if cnt, err := decodeRefcnt(v); err != nil || cnt != wc {
			d.Wrong++
		}
		return nil
	})
	if err != nil {
		return d, err
	}
	d.Missing = len(want) - matched
	bwdMatched, bwdExtra := 0, 0
	err = p.scanRows(p.bwd, p.arity-1, func(t relation.Tuple, _ []byte) error {
		key = t.AppendKey(key[:0])
		if _, ok := want[string(key)]; ok {
			bwdMatched++
		} else {
			bwdExtra++
		}
		return nil
	})
	if err != nil {
		return d, err
	}
	if bwdMatched != matched || bwdExtra != d.Extra {
		return d, fmt.Errorf("asr: partition %s: backward tree holds %d expected and %d unexpected rows, forward tree %d and %d",
			p.name, bwdMatched, bwdExtra, matched, d.Extra)
	}
	if err := p.fwd.CheckInvariants(); err != nil {
		return d, err
	}
	return d, p.bwd.CheckInvariants()
}
