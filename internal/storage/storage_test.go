package storage

import (
	"testing"
)

func TestDiskBasics(t *testing.T) {
	d := NewDisk(0)
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", d.PageSize(), DefaultPageSize)
	}
	p1 := d.Allocate()
	p2 := d.Allocate()
	if p1 == p2 || p1.IsNil() {
		t.Fatal("page ids not unique")
	}
	buf := make([]byte, d.PageSize())
	buf[0] = 0xAB
	if err := d.Write(p1, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.PageSize())
	if err := d.Read(p1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("read back wrong data")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocated != 2 {
		t.Errorf("stats = %+v", st)
	}
	if err := d.Read(PageID(999), got); err == nil {
		t.Error("read of unallocated page accepted")
	}
	if err := d.Read(p1, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := d.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p2); err == nil {
		t.Error("double free accepted")
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	d := NewDisk(64)
	pool := NewBufferPool(d, 2, LRU)
	p1 := d.Allocate()
	d.ResetStats()

	f1, err := pool.Get(p1)
	if err != nil {
		t.Fatal(err)
	}
	f1.Unpin()
	f2, err := pool.Get(p1)
	if err != nil {
		t.Fatal(err)
	}
	f2.Unpin()
	st := pool.Stats()
	if st.LogicalAccesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if d.Stats().Reads != 1 {
		t.Errorf("disk reads = %d, want 1 (second access buffered)", d.Stats().Reads)
	}
}

func TestBufferPoolEvictionWritesBackDirty(t *testing.T) {
	d := NewDisk(8)
	pool := NewBufferPool(d, 1, LRU)
	p1 := d.Allocate()
	p2 := d.Allocate()

	f1, err := pool.Get(p1)
	if err != nil {
		t.Fatal(err)
	}
	f1.Data()[0] = 0x7F
	f1.MarkDirty()
	f1.Unpin()

	// Pulling p2 evicts p1, which must be written back.
	f2, err := pool.Get(p2)
	if err != nil {
		t.Fatal(err)
	}
	f2.Unpin()
	if pool.Stats().Evictions != 1 || pool.Stats().WriteBacks != 1 {
		t.Errorf("stats = %+v", pool.Stats())
	}
	buf := make([]byte, 8)
	if err := d.Read(p1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x7F {
		t.Error("dirty page lost on eviction")
	}
}

func TestBufferPoolPinnedPagesSurvive(t *testing.T) {
	d := NewDisk(8)
	pool := NewBufferPool(d, 1, LRU)
	p1 := d.Allocate()
	p2 := d.Allocate()
	f1, err := pool.Get(p1)
	if err != nil {
		t.Fatal(err)
	}
	// p1 is pinned, so fetching p2 must fail with capacity 1.
	if _, err := pool.Get(p2); err == nil {
		t.Fatal("eviction of pinned page accepted")
	}
	f1.Unpin()
	if _, err := pool.Get(p2); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestBufferPolicies(t *testing.T) {
	for _, policy := range []ReplacementPolicy{LRU} {
		d := NewDisk(8)
		pool := NewBufferPool(d, 3, policy)
		ids := make([]PageID, 6)
		for i := range ids {
			ids[i] = d.Allocate()
		}
		for round := 0; round < 3; round++ {
			for _, id := range ids {
				f, err := pool.Get(id)
				if err != nil {
					t.Fatalf("%v: %v", policy, err)
				}
				f.Unpin()
			}
		}
		st := pool.Stats()
		if st.LogicalAccesses != 18 {
			t.Errorf("%v: logical = %d, want 18", policy, st.LogicalAccesses)
		}
		if st.Misses == 0 || st.Misses > 18 {
			t.Errorf("%v: misses = %d", policy, st.Misses)
		}
		if pool.Resident() > 3 {
			t.Errorf("%v: resident = %d exceeds capacity", policy, pool.Resident())
		}
	}
}

func TestBufferUnboundedAndDropClean(t *testing.T) {
	d := NewDisk(8)
	pool := NewBufferPool(d, 0, LRU)
	var ids []PageID
	for i := 0; i < 10; i++ {
		ids = append(ids, d.Allocate())
	}
	for _, id := range ids {
		f, _ := pool.Get(id)
		f.Data()[0] = 1
		f.MarkDirty()
		f.Unpin()
	}
	if pool.Resident() != 10 {
		t.Fatalf("resident = %d", pool.Resident())
	}
	if err := pool.DropClean(); err != nil {
		t.Fatal(err)
	}
	if pool.Resident() != 0 {
		t.Error("DropClean left residents")
	}
	buf := make([]byte, 8)
	d.Read(ids[3], buf)
	if buf[0] != 1 {
		t.Error("DropClean lost dirty data")
	}
}
