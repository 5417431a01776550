// Package storage simulates the secondary-storage layer that the paper's
// cost model charges against: fixed-size pages (net size 4056 bytes, the
// paper's system parameter), a simulated disk with access accounting, a
// pinning buffer pool with pluggable replacement, and type-clustered
// record segments. Both the B⁺-trees holding access support relation
// partitions (package btree) and the object segments allocate from this
// layer, so measured page accesses are directly comparable with the
// analytical model of package costmodel.
package storage

import (
	"fmt"
	"sync"
)

// Paper system parameters (Figure 3).
const (
	// DefaultPageSize is the net page size in bytes.
	DefaultPageSize = 4056
)

// PageID identifies a disk page. The zero value is the nil page.
type PageID uint64

// NilPage is the absent page reference.
const NilPage PageID = 0

// IsNil reports whether the id is the nil page.
func (id PageID) IsNil() bool { return id == NilPage }

// String renders the page id.
func (id PageID) String() string {
	if id == NilPage {
		return "page:nil"
	}
	return fmt.Sprintf("page:%d", uint64(id))
}

// DiskStats counts physical page transfers.
type DiskStats struct {
	Reads     uint64
	Writes    uint64
	Allocated uint64
	Freed     uint64
}

// Device is the page-device abstraction the buffer pool sits on: a
// plain simulated Disk, or a FaultInjector wrapping one to exercise
// error paths. All implementations must be safe for concurrent use.
type Device interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Allocate reserves a fresh zeroed page and returns its id.
	Allocate() PageID
	// Free releases a page.
	Free(id PageID) error
	// Read copies the page contents into buf (PageSize bytes long).
	Read(id PageID, buf []byte) error
	// Write stores the page contents from buf (PageSize bytes long).
	Write(id PageID, buf []byte) error
	// Stats returns a copy of the transfer counters.
	Stats() DiskStats
	// ResetStats zeroes the transfer counters.
	ResetStats()
}

// LSNWriter is implemented by devices that stamp a log sequence number
// into the stored page header (FileDisk). The buffer pool uses it to
// persist each frame's commit LSN so Recover can compare stored pages
// against logged images.
type LSNWriter interface {
	WriteLSN(id PageID, buf []byte, lsn uint64) error
}

// Syncer is implemented by devices with a durability barrier (FileDisk
// fsync). Checkpoint calls it after flushing dirty frames.
type Syncer interface {
	Sync() error
}

// Disk is a simulated secondary-storage device holding fixed-size pages.
// All traffic is counted in Stats; the buffer pool sits on top and only
// touches the disk on misses and write-backs.
//
// A Disk is safe for concurrent use; every method takes an internal
// mutex, mirroring a device that serializes transfers.
type Disk struct {
	mu       sync.Mutex
	pageSize int
	pages    map[PageID][]byte
	next     PageID
	stats    DiskStats
}

// NewDisk creates an empty disk with the given page size (DefaultPageSize
// when ≤ 0).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{pageSize: pageSize, pages: make(map[PageID][]byte), next: 1}
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Stats returns a copy of the transfer counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the transfer counters.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = DiskStats{}
}

// Allocate reserves a fresh zeroed page and returns its id.
func (d *Disk) Allocate() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	d.pages[id] = make([]byte, d.pageSize)
	d.stats.Allocated++
	return id
}

// Free releases a page.
func (d *Disk) Free(id PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pages[id]; !ok {
		return fmt.Errorf("storage: Free(%v): no such page", id)
	}
	delete(d.pages, id)
	d.stats.Freed++
	return nil
}

// Read copies the page contents into buf (which must be PageSize long).
func (d *Disk) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: Read(%v): no such page", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: Read(%v): buffer size %d, want %d", id, len(buf), d.pageSize)
	}
	copy(buf, p)
	d.stats.Reads++
	telDiskReads.Inc()
	return nil
}

// Write stores the page contents from buf (which must be PageSize long).
func (d *Disk) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pages[id]
	if !ok {
		return fmt.Errorf("storage: Write(%v): no such page", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: Write(%v): buffer size %d, want %d", id, len(buf), d.pageSize)
	}
	copy(p, buf)
	d.stats.Writes++
	telDiskWrites.Inc()
	return nil
}
