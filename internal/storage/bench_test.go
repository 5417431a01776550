package storage

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// BenchmarkPoolGetContended runs Get/Unpin from 2×GOMAXPROCS goroutines
// over a FileDisk-backed pool of 128 frames, read_large's pool: 7 in 8
// pins go to a hot set of 64 pages that stays resident, the rest to 1
// 024 pages the pool cannot hold, so a steady share of pins miss and
// read from the file while the others hit. A shard with every frame
// pinned at once (many cores, few frames per shard) is skipped past, as
// ErrPoolExhausted is load, not a fault. Its -mutexprofile shows how
// long pins wait on the shard mutexes (docs/PERFORMANCE.md).
func BenchmarkPoolGetContended(b *testing.B) {
	const pages, hot, frames = 1024, 64, 128
	d, err := OpenFileDisk(filepath.Join(b.TempDir(), "pages"), DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ids := make([]PageID, pages)
	buf := make([]byte, DefaultPageSize)
	for i := range ids {
		ids[i] = d.Allocate()
		buf[0] = byte(i)
		if err := d.Write(ids[i], buf); err != nil {
			b.Fatal(err)
		}
	}
	pool := NewBufferPool(d, frames, LRU)
	var seed atomic.Uint64
	b.SetParallelism(2)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(0x9E3779B97F4A7C15) // xorshift state, one per goroutine
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			i := x % hot
			if x>>61 == 0 {
				i = x % pages
			}
			fr, err := pool.Get(ids[i])
			if errors.Is(err, ErrPoolExhausted) {
				continue
			}
			if err != nil {
				b.Error(err)
				return
			}
			fr.Unpin()
		}
	})
}
