package asr

import (
	"maps"
	"math/rand"
	"strings"
	"testing"

	"asr/internal/btree"
	"asr/internal/gom"
	"asr/internal/relation"
	"asr/internal/storage"
)

// storedCounts reads a partition's stored (row, reference count) pairs
// off its forward tree, keyed by Tuple.Key.
func storedCounts(t *testing.T, p *Partition) map[string]int {
	t.Helper()
	out := map[string]int{}
	p.mu.RLock()
	defer p.mu.RUnlock()
	err := p.scanRows(p.fwd, 0, func(row relation.Tuple, v []byte) error {
		cnt, err := decodeRefcnt(v)
		out[row.Key()] = cnt
		return err
	})
	if err != nil {
		t.Fatalf("partition %s: %v", p.name, err)
	}
	return out
}

// treePools are the pools one partition's forward tree, backward tree
// and meta page each live on alone.
type treePools struct{ fwd, bwd, meta *storage.BufferPool }

// isolateTrees re-opens each of a partition's trees, and its meta page,
// on a pool of its own over the same device, so that pool's
// logical-access count is exactly that tree's page traffic. The
// partition's pages are flushed from the pool that built them first.
func isolateTrees(t *testing.T, p *Partition) treePools {
	t.Helper()
	if err := p.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	dev := p.pool.Disk()
	tp := treePools{
		fwd:  storage.NewBufferPool(dev, 0, storage.LRU),
		bwd:  storage.NewBufferPool(dev, 0, storage.LRU),
		meta: storage.NewBufferPool(dev, 0, storage.LRU),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fwd = btree.Open(tp.fwd, p.name+".fwd", p.fwd.Root(), p.fwd.Height(), p.fwd.Len())
	p.bwd = btree.Open(tp.bwd, p.name+".bwd", p.bwd.Root(), p.bwd.Height(), p.bwd.Len())
	p.pool = tp.meta
	return tp
}

func (tp treePools) accesses() [3]uint64 {
	return [3]uint64{tp.fwd.Stats().LogicalAccesses, tp.bwd.Stats().LogicalAccesses, tp.meta.Stats().LogicalAccesses}
}

// writeBacks flushes the three pools and returns how many pages each has
// written back so far: a page dirtied since the last flush counts.
func (tp treePools) writeBacks(t *testing.T) [3]uint64 {
	t.Helper()
	var out [3]uint64
	for i, p := range []*storage.BufferPool{tp.fwd, tp.bwd, tp.meta} {
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		out[i] = p.Stats().WriteBacks
	}
	return out
}

// TestMaintenanceMatchesRebuildAfterEveryOp is the differential check of
// netted maintenance: every extension × {binary, none, mixed}
// decomposition plus a §5.4 shared pair, maintained under one seeded
// update stream. After every op each partition's stored (row, count)
// pairs equal a fresh Build's, Verify is clean, and a partition whose
// stored pairs the op did not change was not written: not one page of
// its trees or its meta page was dirtied (so none was written back or
// logged). A Full design finds an update's rows by probing its
// partitions' backward trees (§6), so it may read an untouched
// partition; in every other design, which searches the object base, an
// untouched partition was not even pinned.
func TestMaintenanceMatchesRebuildAfterEveryOp(t *testing.T) {
	decs := []Decomposition{BinaryDecomposition(5), NoDecomposition(5), {0, 3, 5}}
	for seed := int64(0); seed < 2; seed++ {
		ob, path := randomCompany(t, 2000+seed, 6, 10, 8)
		type design struct {
			ext Extension
			dec Decomposition
			ix  *Index
		}
		mgr := NewManager(ob, newPool())
		var designs []design
		for _, ext := range Extensions {
			for _, dec := range decs {
				ix, err := mgr.CreateIndex(path, ext, dec)
				if err != nil {
					t.Fatal(err)
				}
				designs = append(designs, design{ext, dec, ix})
			}
		}
		schema := ob.Schema()
		q := gom.MustResolvePath(schema.MustLookup("Product"), "Composition", "Name")
		// The pair's right-complete (0, 3, 5) designs are among the
		// designs above, so a second Manager maintains it.
		pair, err := NewManager(ob, newPool()).CreateShared(path, q)
		if err != nil {
			t.Fatal(err)
		}

		all := []*Index{pair.P, pair.Q}
		for _, d := range designs {
			all = append(all, d.ix)
		}
		pools := map[*Partition]treePools{}
		probed := map[*Partition]bool{} // read by a Full design's search
		var parts []*Partition          // every distinct partition, in a fixed order
		for _, ix := range all {
			for _, pp := range ix.parts {
				if _, ok := pools[pp.Part]; !ok {
					pools[pp.Part] = isolateTrees(t, pp.Part)
					parts = append(parts, pp.Part)
				}
				probed[pp.Part] = probed[pp.Part] || ix.ext == Full
			}
		}

		rng := rand.New(rand.NewSource(seed))
		divisionT := schema.MustLookup("Division")
		prodSetT := schema.MustLookup("ProdSET")
		productT := schema.MustLookup("Product")
		basePartSetT := schema.MustLookup("BasePartSET")
		basePartT := schema.MustLookup("BasePart")
		pick := func(typ *gom.Type) gom.OID {
			ext := ob.Extent(typ, true)
			if len(ext) == 0 {
				return gom.NilOID
			}
			return ext[rng.Intn(len(ext))]
		}

		untouched := 0 // partitions an op left alone, proven unwritten
		for op := 0; op < 30; op++ {
			before := make([]map[string]int, len(parts))
			for i, p := range parts {
				before[i] = storedCounts(t, p)
			}
			acc0 := make([][3]uint64, len(parts))
			wb0 := make([][3]uint64, len(parts))
			for i, p := range parts {
				acc0[i], wb0[i] = pools[p].accesses(), pools[p].writeBacks(t)
			}
			var label string
			switch rng.Intn(5) {
			case 0:
				label = "retarget Division.Manufactures"
				if d, s := pick(divisionT), pick(prodSetT); !d.IsNil() && !s.IsNil() {
					ob.MustSetAttr(d, "Manufactures", gom.Ref(s))
				}
			case 1:
				label = "retarget Product.Composition"
				if p := pick(productT); !p.IsNil() {
					if rng.Intn(4) == 0 {
						ob.MustSetAttr(p, "Composition", nil)
					} else if s := pick(basePartSetT); !s.IsNil() {
						ob.MustSetAttr(p, "Composition", gom.Ref(s))
					}
				}
			case 2:
				label = "insert into a set"
				if s, p := pick(prodSetT), pick(productT); !s.IsNil() && !p.IsNil() {
					ob.MustInsertIntoSet(s, gom.Ref(p))
				}
			case 3:
				label = "remove from a set"
				if s := pick(basePartSetT); !s.IsNil() {
					if o, ok := ob.Get(s); ok && o.Len() > 0 {
						elems := o.Elements()
						ob.RemoveFromSet(s, elems[rng.Intn(len(elems))])
					}
				}
			case 4:
				label = "rename a part"
				if p := pick(basePartT); !p.IsNil() {
					ob.MustSetAttr(p, "Name", gom.String(partName(rng)))
				}
			}
			acc1 := make([][3]uint64, len(parts))
			wb1 := make([][3]uint64, len(parts))
			for i, p := range parts {
				acc1[i], wb1[i] = pools[p].accesses(), pools[p].writeBacks(t)
			}
			for i, p := range parts {
				if !maps.Equal(before[i], storedCounts(t, p)) {
					continue
				}
				if wb := wb1[i]; wb != wb0[i] {
					t.Errorf("seed %d op %d (%s): partition %s did not change, yet its fwd/bwd/meta pools wrote back %d/%d/%d dirtied pages",
						seed, op, label, p.name, wb[0]-wb0[i][0], wb[1]-wb0[i][1], wb[2]-wb0[i][2])
				}
				if acc := acc1[i]; acc != acc0[i] && !probed[p] {
					t.Errorf("seed %d op %d (%s): partition %s did not change, yet its fwd/bwd/meta pools saw %d/%d/%d logical accesses",
						seed, op, label, p.name, acc[0]-acc0[i][0], acc[1]-acc0[i][1], acc[2]-acc0[i][2])
				}
				untouched++
			}

			for _, d := range designs {
				where := d.ext.String() + " " + d.dec.String()
				if err := d.ix.QuarantineReason(); err != nil {
					t.Fatalf("seed %d op %d (%s): %s quarantined: %v", seed, op, label, where, err)
				}
				rep, err := d.ix.Verify()
				if err != nil || !rep.Clean() {
					t.Fatalf("seed %d op %d (%s): %s: %v %v", seed, op, label, where, rep, err)
				}
				fresh, err := Build(ob, path, d.ext, d.dec, newPool())
				if err != nil {
					t.Fatal(err)
				}
				for i, pp := range d.ix.parts {
					if got, want := storedCounts(t, pp.Part), storedCounts(t, fresh.parts[i].Part); !maps.Equal(got, want) {
						t.Fatalf("seed %d op %d (%s): %s partition %d stores %v, a rebuild %v", seed, op, label, where, i, got, want)
					}
				}
			}
			freshPair, err := buildShared(ob, path, q, newPool())
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range [][2]*Index{{pair.P, freshPair.P}, {pair.Q, freshPair.Q}} {
				for i, pp := range side[0].parts {
					if got, want := storedCounts(t, pp.Part), storedCounts(t, side[1].parts[i].Part); !maps.Equal(got, want) {
						t.Fatalf("seed %d op %d (%s): shared pair on %s partition %d stores %v, a rebuild %v",
							seed, op, label, side[0].path, i, got, want)
					}
				}
			}
		}
		if untouched == 0 {
			t.Errorf("seed %d: no op left any partition unchanged — the page-touch check proved nothing", seed)
		}
	}
}

// A net removal of a row the partition does not track is refused, and
// the refusal quarantines the index, netting or not.
func TestNetRemovalOfUntrackedRowQuarantines(t *testing.T) {
	ob, path := randomCompany(t, 77, 6, 10, 8)
	ix, err := NewManager(ob, newPool()).CreateIndex(path, Full, BinaryDecomposition(5))
	if err != nil {
		t.Fatal(err)
	}

	// Drop a stored Division → ProdSET edge row from partition 0 behind
	// maintenance's back, then remove that edge from the base.
	p := ix.parts[0].Part
	var row relation.Tuple
	var cnt int
	p.mu.RLock()
	err = p.scanRows(p.fwd, 0, func(t relation.Tuple, v []byte) error {
		if row == nil && t[0] != nil && t[1] != nil {
			row = t
			cnt, _ = decodeRefcnt(v)
		}
		return nil
	})
	p.mu.RUnlock()
	if err != nil || row == nil {
		t.Fatalf("no Division → ProdSET row to drop (%v)", err)
	}
	if err := p.adjust(row, -cnt); err != nil {
		t.Fatal(err)
	}
	ob.MustSetAttr(row[0].(gom.Ref).OID(), "Manufactures", nil)

	reason := ix.QuarantineReason()
	if reason == nil || !strings.Contains(reason.Error(), "removing untracked row") {
		t.Fatalf("quarantine reason %v, want a removing-untracked-row refusal", reason)
	}
}
