package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// ErrCorruptPage is wrapped by every checksum failure a FileDisk
// detects, so callers can tell media corruption (torn writes, bit rot)
// from other I/O errors with errors.Is and route the page to the
// quarantine/Repair machinery.
var ErrCorruptPage = errors.New("corrupt page (checksum mismatch)")

// castagnoli is the CRC32C polynomial table; CRC32C is the standard
// storage checksum (iSCSI, ext4, Btrfs) and has hardware support.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// On-disk layout of a FileDisk:
//
//	offset 0:    superblock slot A ─┐ dual slots, generation-versioned,
//	offset 512:  superblock slot B ─┘ so a torn superblock write is survivable
//	offset 4096: page 1, page 2, ... each pageHeaderSize+pageSize bytes
//
// Per-page header (pageHeaderSize bytes, little-endian):
//
//	crc   u32  CRC32C over the remaining header bytes + payload
//	flags u32  reserved, zero
//	lsn   u64  LSN of the last WAL-covered write (0 = never WAL-covered)
//	id    u64  page id, so a misdirected write is caught as corruption
const (
	pageHeaderSize  = 24
	fileHeaderBytes = 4096 // superblock region before page 1
	sbSlotSize      = 64
	sbSlotB         = 512
	sbMagic         = 0x41535246_44534b31 // "ASRFDSK1"
)

// FileDisk implements Device over a real page file. Every page carries
// a checksummed header so torn or corrupt pages are detected on read
// (returned as ErrCorruptPage), and an LSN used by Recover to decide
// whether a logged page image is newer than the stored page.
//
// The free list is kept in memory only: pages freed and not reused
// before the process exits are leaked in the file (their ids are never
// handed out again because nextID is persisted). This trades a little
// file growth for not having to log allocator state.
//
// A FileDisk is safe for concurrent use.
type FileDisk struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	pageSize int
	nextID   PageID
	free     []PageID
	fresh    map[PageID]bool // allocated this run, never written: reads are zeros
	maxLSN   uint64
	gen      uint64 // superblock generation, alternates slots
	stats    DiskStats
	cp       *Crashpoint
	phys     []byte // readPhys's record buffer, guarded by mu
}

// physSize returns the on-file size of one page record.
func (d *FileDisk) physSize() int64 { return int64(pageHeaderSize + d.pageSize) }

// pageOffset returns the file offset of a page id.
func (d *FileDisk) pageOffset(id PageID) int64 {
	return fileHeaderBytes + int64(id-1)*d.physSize()
}

// OpenFileDisk opens (or creates) a page file. pageSize is used only
// when creating a fresh file (DefaultPageSize when ≤ 0); an existing
// file's page size is authoritative and a conflicting non-zero pageSize
// is an error.
func OpenFileDisk(path string, pageSize int) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	d := &FileDisk{f: f, path: path, pageSize: pageSize, nextID: 1, fresh: map[PageID]bool{}}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := d.writeSuperblock(); err != nil {
			f.Close()
			return nil, err
		}
		return d, nil
	}
	if err := d.readSuperblock(pageSize); err != nil {
		f.Close()
		return nil, err
	}
	// A crash can lose a superblock update; never hand out an id that
	// the file already has bytes for.
	if filePages := (st.Size() - fileHeaderBytes + d.physSize() - 1) / d.physSize(); filePages >= int64(d.nextID) {
		d.nextID = PageID(filePages) + 1
	}
	return d, nil
}

// encodeSuperblock renders one slot.
func (d *FileDisk) encodeSuperblock() []byte {
	b := make([]byte, sbSlotSize)
	binary.LittleEndian.PutUint64(b[0:], sbMagic)
	binary.LittleEndian.PutUint64(b[8:], d.gen)
	binary.LittleEndian.PutUint64(b[16:], uint64(d.pageSize))
	binary.LittleEndian.PutUint64(b[24:], uint64(d.nextID))
	binary.LittleEndian.PutUint64(b[32:], d.maxLSN)
	binary.LittleEndian.PutUint32(b[sbSlotSize-4:], crc32.Checksum(b[:sbSlotSize-4], castagnoli))
	return b
}

// writeSuperblock persists the allocator state into the slot the
// previous generation did not use, so a torn superblock write leaves
// the other slot intact. Must be called with d.mu held (or before the
// disk is shared).
func (d *FileDisk) writeSuperblock() error {
	d.gen++
	off := int64(0)
	if d.gen%2 == 1 {
		off = sbSlotB
	}
	return d.writeAt(d.encodeSuperblock(), off)
}

// readSuperblock loads the newest valid slot.
func (d *FileDisk) readSuperblock(wantPageSize int) error {
	best := uint64(0)
	found := false
	for _, off := range []int64{0, sbSlotB} {
		b := make([]byte, sbSlotSize)
		if _, err := d.f.ReadAt(b, off); err != nil {
			continue
		}
		if binary.LittleEndian.Uint64(b[0:]) != sbMagic {
			continue
		}
		if crc32.Checksum(b[:sbSlotSize-4], castagnoli) != binary.LittleEndian.Uint32(b[sbSlotSize-4:]) {
			continue
		}
		gen := binary.LittleEndian.Uint64(b[8:])
		if found && gen <= best {
			continue
		}
		found, best = true, gen
		d.gen = gen
		d.pageSize = int(binary.LittleEndian.Uint64(b[16:]))
		d.nextID = PageID(binary.LittleEndian.Uint64(b[24:]))
		d.maxLSN = binary.LittleEndian.Uint64(b[32:])
	}
	if !found {
		return fmt.Errorf("storage: %s: no valid superblock", d.path)
	}
	if d.pageSize <= 0 {
		return fmt.Errorf("storage: %s: invalid page size %d", d.path, d.pageSize)
	}
	if wantPageSize != DefaultPageSize && wantPageSize > 0 && wantPageSize != d.pageSize {
		return fmt.Errorf("storage: %s: page size %d, want %d", d.path, d.pageSize, wantPageSize)
	}
	return nil
}

// writeAt performs one guarded physical write: the scheduled crashpoint
// may truncate it (torn write) and freeze the file for every later
// operation, simulating a process kill mid-write.
func (d *FileDisk) writeAt(b []byte, off int64) error {
	return d.cp.writeAt(d.f, b, off)
}

// SetCrashpoint installs (or clears, with nil) the crashpoint guarding
// every physical write, read and sync of this file.
func (d *FileDisk) SetCrashpoint(cp *Crashpoint) {
	d.mu.Lock()
	d.cp = cp
	d.mu.Unlock()
}

// crashpoint returns the installed crashpoint (nil in production) for
// writes made on this disk's behalf outside the page file.
func (d *FileDisk) crashpoint() *Crashpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cp
}

// Path returns the backing file path.
func (d *FileDisk) Path() string { return d.path }

// MaxLSN returns the highest LSN ever stamped into a page of this file.
func (d *FileDisk) MaxLSN() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxLSN
}

// PageSize implements Device.
func (d *FileDisk) PageSize() int { return d.pageSize }

// NumPages implements Device. Because the free list is not persisted,
// after a reopen this counts every page ever allocated.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.nextID-1) - len(d.free)
}

// Stats implements Device.
func (d *FileDisk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Device.
func (d *FileDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = DiskStats{}
}

// Allocate implements Device, reusing freed pages first.
func (d *FileDisk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var id PageID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.nextID
		d.nextID++
	}
	d.fresh[id] = true
	d.stats.Allocated++
	return id
}

// ensureAllocated bumps the allocator past id — recovery may redo a
// page the (possibly stale) superblock does not know about yet.
func (d *FileDisk) ensureAllocated(id PageID) {
	d.mu.Lock()
	if id >= d.nextID {
		d.nextID = id + 1
	}
	d.mu.Unlock()
}

// Free implements Device. The id returns to the in-memory free list
// only; on restart un-reused freed pages are leaked (see type comment).
func (d *FileDisk) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == NilPage || id >= d.nextID {
		return fmt.Errorf("storage: Free(%v): no such page", id)
	}
	delete(d.fresh, id)
	d.free = append(d.free, id)
	d.stats.Freed++
	return nil
}

// Read implements Device, verifying the page checksum. A page that was
// allocated but never written (this run or before a crash) reads as
// zeros; any other checksum mismatch is ErrCorruptPage.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: Read(%v): buffer size %d, want %d", id, len(buf), d.pageSize)
	}
	if d.cp != nil && d.cp.Crashed() {
		return fmt.Errorf("storage: Read(%v): %w", id, ErrCrashed)
	}
	if id == NilPage || id >= d.nextID {
		return fmt.Errorf("storage: Read(%v): no such page", id)
	}
	if d.fresh[id] {
		for i := range buf {
			buf[i] = 0
		}
		d.stats.Reads++
		telDiskReads.Inc()
		return nil
	}
	_, _, err := d.readPhys(id, buf)
	if err != nil {
		return err
	}
	d.stats.Reads++
	telDiskReads.Inc()
	return nil
}

// readPhys reads and verifies one page record; must be called with
// d.mu held. buf may be nil (header-only interest). Returns the
// stored LSN and whether the page has ever been written.
func (d *FileDisk) readPhys(id PageID, buf []byte) (lsn uint64, written bool, err error) {
	if d.phys == nil {
		d.phys = make([]byte, d.physSize())
	}
	phys := d.phys
	if err := d.readRecord(id, phys); err != nil {
		return 0, false, fmt.Errorf("storage: Read(%v): %w", id, err)
	}
	lsn, written, err = verifyPageRecord(id, phys)
	if err != nil {
		telChecksumFailures.Inc()
		return 0, true, err
	}
	if buf != nil {
		// A never-written record is all zeros: so is its payload.
		copy(buf, phys[pageHeaderSize:])
	}
	return lsn, written, nil
}

// readRecord reads page id's raw record into phys, zero-filling what
// lies past end of file — phys may hold an earlier record, and a page
// allocated but never written reads as all zeros; must be called with
// d.mu held.
func (d *FileDisk) readRecord(id PageID, phys []byte) error {
	n, err := d.f.ReadAt(phys, d.pageOffset(id))
	if err != nil && err != io.EOF {
		return err
	}
	clear(phys[n:])
	return nil
}

// encodePageRecord lays out the on-file record of page id — the header
// described at pageHeaderSize, then the payload — with its checksum.
func (d *FileDisk) encodePageRecord(id PageID, payload []byte, lsn uint64) []byte {
	phys := make([]byte, d.physSize()) // flags stay zero
	binary.LittleEndian.PutUint64(phys[8:], lsn)
	binary.LittleEndian.PutUint64(phys[16:], uint64(id))
	copy(phys[pageHeaderSize:], payload)
	binary.LittleEndian.PutUint32(phys[0:], crc32.Checksum(phys[4:], castagnoli))
	return phys
}

// verifyPageRecord checks a raw record read from page id's slot. An
// all-zero record is a fresh page: allocated, never written (or entirely
// beyond EOF). Otherwise the checksum must match and the stored id must
// be id — so a misdirected write is caught as corruption too — or the
// error wraps ErrCorruptPage.
func verifyPageRecord(id PageID, phys []byte) (lsn uint64, written bool, err error) {
	if allZero(phys) {
		return 0, false, nil
	}
	wantCRC := binary.LittleEndian.Uint32(phys[0:])
	gotCRC := crc32.Checksum(phys[4:], castagnoli)
	storedID := binary.LittleEndian.Uint64(phys[16:])
	if wantCRC != gotCRC || storedID != uint64(id) {
		return 0, true, fmt.Errorf("storage: Read(%v): crc %08x != %08x (stored id %d): %w",
			id, gotCRC, wantCRC, storedID, ErrCorruptPage)
	}
	return binary.LittleEndian.Uint64(phys[8:]), true, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// PageLSN returns the LSN stored in a page's header without copying the
// payload: 0 for a never-written page, ErrCorruptPage on checksum
// mismatch. Recovery uses it to decide whether a logged image is newer.
func (d *FileDisk) PageLSN(id PageID) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == NilPage || id >= d.nextID {
		return 0, fmt.Errorf("storage: PageLSN(%v): no such page", id)
	}
	if d.fresh[id] {
		return 0, nil
	}
	lsn, _, err := d.readPhys(id, nil)
	return lsn, err
}

// Write implements Device. Plain writes preserve the page's stored LSN
// (the write-back of a page dirtied outside any WAL transaction must
// not regress the LSN below images still in the log).
func (d *FileDisk) Write(id PageID, buf []byte) error {
	return d.WriteLSN(id, buf, 0)
}

// WriteLSN stores the page stamping lsn into its header (lsn 0 keeps
// the previously stored LSN). Implements the write half of the WAL
// protocol: the buffer pool calls it with the frame's commit LSN.
func (d *FileDisk) WriteLSN(id PageID, buf []byte, lsn uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: Write(%v): buffer size %d, want %d", id, len(buf), d.pageSize)
	}
	if id == NilPage || id >= d.nextID {
		return fmt.Errorf("storage: Write(%v): no such page", id)
	}
	if lsn == 0 {
		if cur, written, err := d.readPhys(id, nil); err == nil && written {
			lsn = cur
		}
	}
	if err := d.writeAt(d.encodePageRecord(id, buf, lsn), d.pageOffset(id)); err != nil {
		return fmt.Errorf("storage: Write(%v): %w", id, err)
	}
	delete(d.fresh, id)
	if lsn > d.maxLSN {
		d.maxLSN = lsn
	}
	d.stats.Writes++
	telDiskWrites.Inc()
	return nil
}

// Sync persists the superblock (allocator watermark, max LSN) and
// fsyncs the file. Called by BufferPool.Checkpoint after flushing.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeSuperblock(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", d.path, err)
	}
	if d.cp != nil && d.cp.Crashed() {
		return fmt.Errorf("storage: sync %s: %w", d.path, ErrCrashed)
	}
	if err := d.cp.sync(d.f); err != nil {
		return fmt.Errorf("storage: sync %s: %w", d.path, err)
	}
	return nil
}

// Close syncs and closes the file.
func (d *FileDisk) Close() error {
	err := d.Sync()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MaxPageID returns the highest page id ever allocated (pages on the
// free list included — the physical extent of the file). The backup
// sweep and the scrubber walk 1..MaxPageID.
func (d *FileDisk) MaxPageID() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextID - 1
}

// SnapshotHeader returns a copy of the superblock region — the first
// fileHeaderBytes of the file — read under the disk mutex.
func (d *FileDisk) SnapshotHeader() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := make([]byte, fileHeaderBytes)
	if n, err := d.f.ReadAt(b, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("storage: snapshot header: %w", err)
	} else if err == io.EOF {
		for i := n; i < len(b); i++ {
			b[i] = 0
		}
	}
	return b, nil
}

// SnapshotPage reads one raw physical page record (header + payload)
// under the disk mutex, without enforcing the checksum: ok reports
// whether the record verifies. The per-page latch discipline of an
// online backup — each page is copied atomically with respect to
// writers, and queries proceed between pages.
func (d *FileDisk) SnapshotPage(id PageID) (phys []byte, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == NilPage || id >= d.nextID {
		return nil, false, fmt.Errorf("storage: SnapshotPage(%v): no such page", id)
	}
	if d.fresh[id] {
		// Allocated this run, never written: reads as zeros.
		return make([]byte, d.physSize()), true, nil
	}
	phys = make([]byte, d.physSize())
	if err := d.readRecord(id, phys); err != nil {
		return nil, false, fmt.Errorf("storage: SnapshotPage(%v): %w", id, err)
	}
	_, _, verr := verifyPageRecord(id, phys)
	return phys, verr == nil, nil
}

// writePhys stores one raw physical record verbatim (used by Restore to
// lay down backup copies); must be called with d.mu held or before the
// disk is shared.
func (d *FileDisk) writePhys(id PageID, phys []byte) error {
	if len(phys) != int(d.physSize()) {
		return fmt.Errorf("storage: writePhys(%v): record size %d, want %d", id, len(phys), d.physSize())
	}
	if err := d.writeAt(phys, d.pageOffset(id)); err != nil {
		return fmt.Errorf("storage: writePhys(%v): %w", id, err)
	}
	delete(d.fresh, id)
	return nil
}

// zapPage deliberately marks a stored page unreadable (a record whose
// checksum can never verify), so every later read reports
// ErrCorruptPage and the quarantine/Repair machinery takes over.
// Restore uses it on pages whose state is past the PITR target.
func (d *FileDisk) zapPage(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A non-zero payload, so the record is not read as "fresh", under the
	// complement of its true checksum: guaranteed mismatch.
	phys := d.encodePageRecord(id, []byte{0xA5}, 0)
	binary.LittleEndian.PutUint32(phys[0:], ^binary.LittleEndian.Uint32(phys[0:]))
	return d.writePhys(id, phys)
}

// HealPage rewrites page id with data stamped at lsn, but only if the
// stored record currently fails its checksum — checked and written
// atomically under the disk latch, so a heal sourced from an older WAL
// image can never regress a page a concurrent writer just fixed.
// Returns whether the heal was applied.
func (d *FileDisk) HealPage(id PageID, data []byte, lsn uint64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(data) != d.pageSize {
		return false, fmt.Errorf("storage: HealPage(%v): buffer size %d, want %d", id, len(data), d.pageSize)
	}
	if id == NilPage || id >= d.nextID {
		return false, fmt.Errorf("storage: HealPage(%v): no such page", id)
	}
	if d.fresh[id] {
		return false, nil
	}
	if _, _, err := d.readPhys(id, nil); !errors.Is(err, ErrCorruptPage) {
		return false, err // nil (page is fine now) or a real I/O error
	}
	if err := d.writePhys(id, d.encodePageRecord(id, data, lsn)); err != nil {
		return false, err
	}
	if lsn > d.maxLSN {
		d.maxLSN = lsn
	}
	return true, nil
}

// bumpMaxLSN raises the superblock LSN watermark (never lowers it);
// Restore seats it at the PITR target so post-restore LSNs stay
// monotonic.
func (d *FileDisk) bumpMaxLSN(lsn uint64) {
	d.mu.Lock()
	if lsn > d.maxLSN {
		d.maxLSN = lsn
	}
	d.mu.Unlock()
}

// CorruptPage deliberately damages stored page bytes starting at off
// within the payload (bypassing the checksum), so tests can prove
// corruption is detected. The in-memory fresh mark is cleared, making
// the damage visible to the next read.
func (d *FileDisk) CorruptPage(id PageID, off int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id == NilPage || id >= d.nextID {
		return fmt.Errorf("storage: CorruptPage(%v): no such page", id)
	}
	delete(d.fresh, id)
	pos := d.pageOffset(id) + pageHeaderSize + int64(off)
	var b [4]byte
	if _, err := d.f.ReadAt(b[:], pos); err != nil && err != io.EOF {
		return err
	}
	for i := range b {
		b[i] ^= 0xA5
	}
	_, err := d.f.WriteAt(b[:], pos)
	return err
}
