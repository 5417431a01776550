package storage

import (
	"reflect"
	"testing"

	"asr/internal/fault"
)

// Stats/ResetStats pairs must zero every counter. The assertions
// reflect over the snapshot structs so a counter added later cannot be
// silently missed: an unclassified field kind fails the test until the
// new field is reset (or a deliberate exemption is added here), and the
// setup is required to make every existing counter nonzero first, so a
// ResetStats that forgets a field fails rather than vacuously passing.
func TestBufferPoolResetStatsZeroesEveryField(t *testing.T) {
	fi := NewFaultInjector(NewDisk(128), fault.New(1))
	pool := NewBufferPool(fi, 2, LRU)

	// Misses and pins via GetNew; evictions and write-backs by dirtying
	// more pages than the pool holds frames.
	var ids []PageID
	for i := 0; i < 4; i++ {
		f, err := pool.GetNew()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i)
		f.MarkDirty()
		ids = append(ids, f.ID())
		f.Unpin()
	}
	// A write-back error: the next eviction's device write faults once,
	// so this GetNew fails and the victim stays resident and dirty.
	fi.Schedule(Fault{Op: OpWrite})
	if _, err := pool.GetNew(); err == nil {
		t.Fatal("GetNew succeeded through an injected write-back fault")
	}
	// A physical read plus a hit: re-fetch an evicted page twice.
	for i := 0; i < 2; i++ {
		f, err := pool.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		f.Unpin()
	}

	pre := pool.Stats()
	preV := reflect.ValueOf(pre)
	for i := 0; i < preV.NumField(); i++ {
		if preV.Field(i).Uint() == 0 {
			t.Errorf("setup left BufferStats.%s zero — the reset below would not prove anything for it",
				preV.Type().Field(i).Name)
		}
	}

	pool.ResetStats()
	assertAllFieldsZero(t, reflect.ValueOf(pool.Stats()), "BufferStats")

	// The device underneath has its own pair (FaultInjector delegates
	// to the wrapped disk — the contract must hold through the wrapper).
	if err := fi.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	ds := fi.Stats()
	dsV := reflect.ValueOf(ds)
	for i := 0; i < dsV.NumField(); i++ {
		if dsV.Field(i).Uint() == 0 {
			t.Errorf("setup left DiskStats.%s zero — the reset below would not prove anything for it",
				dsV.Type().Field(i).Name)
		}
	}
	fi.ResetStats()
	assertAllFieldsZero(t, reflect.ValueOf(fi.Stats()), "DiskStats")
}

func assertAllFieldsZero(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s.%s: unclassified field of kind %s — reset it in ResetStats or classify it here",
				name, f.Name, f.Type.Kind())
			continue
		}
		if got := v.Field(i).Uint(); got != 0 {
			t.Errorf("%s.%s = %d after ResetStats, want 0", name, f.Name, got)
		}
	}
}
