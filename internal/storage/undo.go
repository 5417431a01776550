package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// UndoTxn makes a span of page mutations atomic at the storage level.
// While a transaction is active the pool captures the pre-image of
// every page at its first pin and records every page allocated through
// GetNew; Rollback restores the pre-images and frees the fresh pages,
// Commit discards the captures. One page copy per touched page is the
// whole cost — there is no redo log and no disk I/O on the commit path —
// and the copy lands in a buffer an earlier transaction of the pool
// captured into: a finished transaction hands its pre-image buffers
// back to the pool (recycle), up to undoSpareMax of them.
//
// Rollback deliberately performs no device writes: pre-images are
// restored into (or reinstated as) resident dirty frames, which reach
// the device on a later write-back. A rollback forced by device write
// faults therefore cannot itself be stopped by those faults.
//
// Usage contract: at most one transaction is active per pool
// (maintenance in this repository is single-writer, so this is natural);
// every page the transaction owner mutates must be pinned through
// Get/GetNew while the transaction is active (true for all B⁺-tree and
// segment mutators); and concurrent readers may pin pages freely — an
// unchanged captured page is left untouched by Rollback, so reader-
// pinned pages are never written under a reader. With the sharded pool,
// Rollback restores pages shard by shard; callers mutating shared
// structures (B⁺-tree pages of a shared partition) must hold those
// structures' write locks across Rollback so concurrent readers never
// observe the restore mid-flight — the same contract as before.
type UndoTxn struct {
	pool  *BufferPool
	mu    sync.Mutex        // guards pre, fresh, done (captures may race across shards)
	pre   map[PageID][]byte // first-pin pre-images
	fresh map[PageID]bool   // pages allocated during the txn
	done  bool
}

// BeginUndo starts an undo transaction; it fails when one is already
// active.
func (b *BufferPool) BeginUndo() (*UndoTxn, error) {
	t := &UndoTxn{pool: b, pre: map[PageID][]byte{}, fresh: map[PageID]bool{}}
	if !b.undo.CompareAndSwap(nil, t) {
		return nil, fmt.Errorf("storage: an undo transaction is already active")
	}
	return t, nil
}

// capture records the page's pre-image if it has not been captured yet.
// Called by the pool on every pin while the transaction is active; may
// be invoked from any shard concurrently, hence the internal mutex. A
// capture arriving after the transaction finished (a reader that loaded
// the pointer just before Commit/Rollback cleared it) is a no-op.
func (t *UndoTxn) capture(id PageID, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.fresh[id] {
		return
	}
	if _, ok := t.pre[id]; ok {
		return
	}
	t.pre[id] = append(t.pool.spareBuf(), data...)
}

// undoSpareMax caps the pre-image buffers a pool keeps between undo
// transactions: enough for a maintained update's pages (a few dozen)
// to be captured without allocating, while a bulk transaction's
// thousands of pre-images go to the garbage collector instead of
// staying pinned.
const undoSpareMax = 32

// spareBuf returns an empty buffer with a page's capacity left by a
// finished transaction, or nil when there is none.
func (b *BufferPool) spareBuf() []byte {
	b.spareMu.Lock()
	defer b.spareMu.Unlock()
	n := len(b.spare)
	if n == 0 {
		return nil
	}
	buf := b.spare[n-1]
	b.spare[n-1] = nil
	b.spare = b.spare[:n-1]
	return buf[:0]
}

// recycle keeps a finished transaction's pre-image buffers for the
// next one's captures and commit, up to undoSpareMax. The transaction
// must no longer read them.
func (b *BufferPool) recycle(pre map[PageID][]byte) {
	for _, buf := range pre {
		b.keepSpare(buf)
	}
}

// keepSpare adds buf to the spare buffers unless undoSpareMax are kept.
func (b *BufferPool) keepSpare(buf []byte) {
	b.spareMu.Lock()
	defer b.spareMu.Unlock()
	if len(b.spare) < undoSpareMax {
		b.spare = append(b.spare, buf)
	}
}

// addFresh records a page allocated during the transaction.
func (t *UndoTxn) addFresh(id PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.fresh[id] = true
	}
}

// touches reports whether the active transaction captured or allocated
// the page. Used by the pool's no-steal victim selection.
func (t *UndoTxn) touches(id PageID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	if _, ok := t.pre[id]; ok {
		return true
	}
	return t.fresh[id]
}

// touchedPages returns the sorted ids the transaction captured or
// allocated.
func (t *UndoTxn) touchedPages() []PageID {
	t.mu.Lock()
	ids := make([]PageID, 0, len(t.pre)+len(t.fresh))
	for id := range t.pre {
		ids = append(ids, id)
	}
	for id := range t.fresh {
		if _, ok := t.pre[id]; !ok {
			ids = append(ids, id)
		}
	}
	t.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Commit ends the transaction keeping all mutations. When the pool has
// a WAL attached, the post-image of every page the transaction dirtied
// is logged and the commit marker made durable (group commit) BEFORE
// the transaction is marked done — on any logging error the
// transaction is still active, so the caller can Rollback exactly as
// for an apply-time failure, and recovery discards the unfinished
// transaction's records. Committing with no WAL is infallible, as
// before.
func (t *UndoTxn) Commit() error {
	b := t.pool
	if w := b.wal.Load(); w != nil {
		t.mu.Lock()
		done := t.done
		t.mu.Unlock()
		if !done {
			if err := t.logTo(w); err != nil {
				return err
			}
		}
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	pre := t.pre
	t.pre = nil
	t.mu.Unlock()
	b.recycle(pre)
	b.undo.CompareAndSwap(t, nil)
	return nil
}

// logTo writes the transaction's page images and commit marker. Frames
// are copied out under their shard mutex — into one scratch page, a
// spare buffer reused for every image and handed back to the spares —
// and appended outside it, so the shard and log mutexes are never held
// together.
func (t *UndoTxn) logTo(w *WAL) error {
	b := t.pool
	txn := w.Begin()
	data := b.spareBuf()
	defer func() {
		if data != nil {
			b.keepSpare(data)
		}
	}()
	for _, id := range t.touchedPages() {
		s := b.shardOf(id)
		s.mu.Lock()
		f, ok := s.frames[id]
		if !ok || !f.dirty {
			// Freed during the transaction, or never modified: nothing to
			// redo.
			s.mu.Unlock()
			continue
		}
		data = append(data[:0], f.data...)
		s.mu.Unlock()
		lsn, err := w.AppendPageImage(txn, id, data)
		if err != nil {
			return err
		}
		b.setLSN(id, lsn)
	}
	return w.Commit(txn)
}

// Rollback ends the transaction restoring every captured page to its
// pre-image and freeing every page allocated during the transaction.
// Callers mutating shared structures (B⁺-tree pages of a shared
// partition) must hold those structures' write locks across Rollback so
// concurrent readers never observe the restore mid-flight.
func (t *UndoTxn) Rollback() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return fmt.Errorf("storage: undo transaction already finished")
	}
	t.done = true
	pre, fresh := t.pre, t.fresh
	t.pre = nil
	t.mu.Unlock()
	b := t.pool
	b.undo.CompareAndSwap(t, nil)

	var errs []error
	for id := range fresh {
		s := b.shardOf(id)
		s.mu.Lock()
		if f, ok := s.frames[id]; ok {
			if f.pins > 0 {
				s.mu.Unlock()
				errs = append(errs, fmt.Errorf("storage: rollback: fresh page %v still pinned", id))
				continue
			}
			s.dropFrame(f)
		}
		s.mu.Unlock()
		if err := b.dev.Free(id); err != nil {
			errs = append(errs, err)
		}
	}
	for id, pre := range pre {
		s := b.shardOf(id)
		s.mu.Lock()
		f, ok := s.frames[id]
		for ok && f.loading {
			// A concurrent miss is reading the page into f: compare
			// against what it read, not against the read in progress.
			s.loaded.Wait()
			f, ok = s.frames[id]
		}
		if ok {
			// Unchanged pages (captured by concurrent reader pins) are left
			// alone, so their bytes are never written under a reader.
			if !bytes.Equal(f.data, pre) {
				copy(f.data, pre)
				f.dirty = true
			}
			s.mu.Unlock()
			continue
		}
		// The page was evicted — possibly with its post-image written back.
		// Reinstate the pre-image as a resident dirty frame; it reaches the
		// device on a later write-back. The shard may transiently exceed its
		// capacity here, which the next eviction corrects.
		s.admit(&frame{id: id, data: append([]byte(nil), pre...), dirty: true})
		s.mu.Unlock()
	}
	b.recycle(pre)
	return errors.Join(errs...)
}
