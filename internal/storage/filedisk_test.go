package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"asr/internal/fault"
)

func TestFileDiskRoundTripAndPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Allocate()

	// A fresh page reads as zeros.
	buf := make([]byte, 128)
	buf[0] = 0xFF
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("fresh page byte %d = %#x, want 0", i, c)
		}
	}

	want := make([]byte, 128)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := d.WriteLSN(id, want, 42); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: page size comes from the superblock, data and LSN persist,
	// and the allocator never re-hands-out the page.
	d2, err := OpenFileDisk(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.PageSize() != 128 {
		t.Fatalf("reopened page size %d, want 128", d2.PageSize())
	}
	got := make([]byte, 128)
	if err := d2.Read(id, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	if lsn, err := d2.PageLSN(id); err != nil || lsn != 42 {
		t.Fatalf("PageLSN = %d, %v; want 42, nil", lsn, err)
	}
	if id2 := d2.Allocate(); id2 == id {
		t.Fatalf("allocator reused page %v after reopen", id)
	}
}

func TestFileDiskConflictingPageSizeRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenFileDisk(path, 256); err == nil {
		t.Fatal("reopen with conflicting page size succeeded")
	}
}

func TestFileDiskPlainWritePreservesLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Allocate()
	buf := make([]byte, 64)
	if err := d.WriteLSN(id, buf, 9); err != nil {
		t.Fatal(err)
	}
	buf[0] = 1
	if err := d.Write(id, buf); err != nil { // plain write, lsn 0
		t.Fatal(err)
	}
	if lsn, err := d.PageLSN(id); err != nil || lsn != 9 {
		t.Fatalf("PageLSN after plain write = %d, %v; want preserved 9, nil", lsn, err)
	}
}

func TestFileDiskDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id := d.Allocate()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := d.WriteLSN(id, buf, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.CorruptPage(id, 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("Read of corrupted page = %v, want ErrCorruptPage", err)
	}
	if _, err := d.PageLSN(id); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("PageLSN of corrupted page = %v, want ErrCorruptPage", err)
	}
}

func TestFileDiskCrashpointTearsWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Allocate()
	buf := make([]byte, 64)
	if err := d.WriteLSN(id, buf, 1); err != nil {
		t.Fatal(err)
	}
	// Second admitted write is torn halfway and the file freezes.
	cp := NewCrashpoint(fault.New(0), 2, 0.5)
	d.SetCrashpoint(cp)
	for i := range buf {
		buf[i] = 0xEE
	}
	if err := d.WriteLSN(id, buf, 1); err != nil {
		t.Fatal(err)
	}
	// New content for the torn write, so the half-written record mixes
	// old and new payload bytes and fails its checksum.
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := d.WriteLSN(id, buf, 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at crashpoint = %v, want ErrCrashed", err)
	}
	if !cp.Crashed() {
		t.Fatal("crashpoint did not fire")
	}
	if err := d.Read(id, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash = %v, want ErrCrashed", err)
	}
	// Reopen the frozen file as a new process would: the torn page fails
	// its checksum.
	d2, err := OpenFileDisk(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.Read(id, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read of torn page after reopen = %v, want ErrCorruptPage", err)
	}
}

// TestBoundedPoolMissReusesBuffer cycles 64 pages of a FileDisk through
// one 8-frame shard, so every Get misses: each returns its own page's
// bytes although its buffer last held another page, a miss costs no
// page-sized allocation, and a page allocated but never written, lying
// past end of file, reads as zeros right after a full page was read —
// as does a page GetNew hands out in a recycled buffer.
func TestBoundedPoolMissReusesBuffer(t *testing.T) {
	const pages, pageSize = 64, DefaultPageSize
	path := filepath.Join(t.TempDir(), "pages")
	d, err := OpenFileDisk(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	content := map[PageID][]byte{}
	var ids []PageID
	for range pages {
		id := d.Allocate()
		content[id] = bytes.Repeat([]byte{byte(id), byte(id >> 8), 0xA5}, pageSize/3+1)[:pageSize]
		if err := d.Write(id, content[id]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	unwritten := d.Allocate()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened, the disk no longer knows the unwritten page as fresh: its
	// read goes to the file, past its end.
	if d, err = OpenFileDisk(path, pageSize); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	pool := NewBufferPoolShards(d, 8, LRU, 1)

	get := func(id PageID, want []byte) {
		t.Helper()
		fr, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data(), want) {
			t.Fatalf("page %v: Get returned another page's bytes", id)
		}
		fr.Unpin()
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, id := range ids {
			get(id, content[id])
		}
	}
	runtime.ReadMemStats(&after)
	st := pool.Stats()
	if st.Hits != 0 || st.Misses != rounds*pages {
		t.Fatalf("%d hits, %d misses; want every Get to miss", st.Hits, st.Misses)
	}
	perMiss := (after.TotalAlloc - before.TotalAlloc) / (rounds * pages)
	t.Logf("%d B allocated per miss", perMiss)
	if perMiss > 256 {
		t.Errorf("a pool miss allocates %d B, want ≤ 256 (buffers reused)", perMiss)
	}

	get(ids[0], content[ids[0]])
	get(unwritten, make([]byte, pageSize))
	fr, err := pool.GetNew()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Data(), make([]byte, pageSize)) {
		t.Fatal("GetNew returned a page holding an evicted page's bytes")
	}
	fr.Unpin()
}
