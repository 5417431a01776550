package btree

import (
	"bytes"
	"fmt"

	"asr/internal/storage"
)

// Visit is called with each entry during a scan; returning false stops
// the scan.
//
// Zero-copy contract: the slices are BORROWED and valid only until the
// callback returns. Values are sub-slices of the pinned page frame —
// the scan holds the pin across the callback and releases it when it
// moves on; a retained value would alias whatever the buffer pool later
// loads into that frame. The key is materialized into one buffer the
// scan reuses for every entry and likewise must not be retained. Callers
// that keep data past the callback copy it.
type Visit func(key, val []byte) bool

// Scan iterates all entries in key order.
func (t *Tree) Scan(fn Visit) error {
	return t.scanFrom(nil, func(k, v []byte) bool { return fn(k, v) })
}

// ScanPrefix iterates entries whose key starts with prefix — the
// partition lookup used to fetch all (partial) paths originating in a
// given OID (§5.2).
func (t *Tree) ScanPrefix(prefix []byte, fn Visit) error {
	return t.scanFrom(prefix, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		return fn(k, v)
	})
}

// leafFor descends from the root to the leaf that would hold key (nil:
// the leftmost leaf), searching every internal page in place, and
// returns that leaf pinned, its cursor on the first entry ≥ key.
func (t *Tree) leafFor(key []byte) (*storage.Frame, cursor, error) {
	pid := t.root
	for {
		fr, c, err := t.open(pid, key)
		if err != nil || c.leaf {
			return fr, c, err
		}
		pid = c.ptr0
		if key != nil {
			pid = c.down
		}
		fr.Unpin()
	}
}

// scanFrom walks leaves left to right starting at the first key ≥ start,
// yielding borrowed key/value slices (see Visit): the value aliases the
// leaf, which stays pinned while fn runs, and the key is the one key the
// scan has materialized, in a buffer the next entry overwrites.
func (t *Tree) scanFrom(start []byte, fn Visit) error {
	fr, c, err := t.leafFor(start)
	if err != nil {
		return err
	}
	// The loop below opens this leaf again: one page access more than the
	// scan needs, kept because the page counts per operation are pinned.
	pid := fr.ID()
	fr.Unpin()
	key := make([]byte, 0, t.maxKey) // no stored key is longer
	for !pid.IsNil() {
		if fr, c, err = t.open(pid, start); err != nil {
			return err
		}
		if c.cnt == 0 && !c.ptr0.IsNil() {
			// Deletion leaves empty leaves in the chain; the hop over
			// one is the deferred-compaction cost, made observable here.
			telEmptyLeafHops.Inc()
		}
		for ok := c.i < c.cnt; ok; ok = c.next() {
			key = c.appendKey(key[:0], c.entry)
			if !fn(key, c.val(c.entry)) {
				fr.Unpin()
				return nil
			}
		}
		pid = c.ptr0
		fr.Unpin()
	}
	return nil
}

// Stats summarizes the tree's physical shape, matching the cost-model
// quantities: Height-1 is the paper's ht (levels above the leaves),
// InnerPages the paper's pg, LeafPages the data page count ap.
// UsedBytes is the stored (prefix-compressed) size; UncompressedBytes
// is what the same entries would occupy in the format-v1 layout (full
// keys), so UsedBytes/UncompressedBytes is the compression ratio and
// Entries/LeafPages the achieved keys per page.
type Stats struct {
	Height            int
	InnerPages        int
	LeafPages         int
	EmptyLeaves       int
	Entries           int
	UsedBytes         int
	UncompressedBytes int
}

// KeysPerLeaf returns the mean number of entries per leaf page.
func (s Stats) KeysPerLeaf() float64 {
	if s.LeafPages == 0 {
		return 0
	}
	return float64(s.Entries) / float64(s.LeafPages)
}

// ComputeStats walks the tree and returns its physical shape. The walk
// itself performs page accesses; call it outside measured sections.
func (t *Tree) ComputeStats() (Stats, error) {
	st := Stats{Height: t.height, Entries: t.count}
	var walk func(pid storage.PageID) error
	walk = func(pid storage.PageID) error {
		fr, n, err := t.load(pid)
		if err != nil {
			return err
		}
		defer fr.Unpin()
		st.UsedBytes += n.size()
		st.UncompressedBytes += n.uncompressedSize()
		if n.isLeaf() {
			st.LeafPages++
			if len(n.keys) == 0 {
				st.EmptyLeaves++
			}
			return nil
		}
		st.InnerPages++
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Drop releases every page of the tree back to the disk and leaves the
// tree unusable — the reclamation step of DROP INDEX. Pages resident in
// the buffer pool are discarded without write-back.
func (t *Tree) Drop() error {
	if t.root.IsNil() {
		return nil
	}
	var pages []storage.PageID
	var walk func(pid storage.PageID) error
	walk = func(pid storage.PageID) error {
		fr, n, err := t.load(pid)
		if err != nil {
			return err
		}
		pages = append(pages, pid)
		children := append([]storage.PageID(nil), n.children...)
		fr.Unpin()
		if n.isLeaf() {
			return nil
		}
		for _, c := range children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	for _, pid := range pages {
		if err := t.pool.Discard(pid); err != nil {
			return err
		}
		if err := t.pool.Disk().Free(pid); err != nil {
			return err
		}
	}
	t.root = storage.NilPage
	t.count = 0
	t.height = 0
	return nil
}

// CheckInvariants validates the structural invariants: key ordering
// within and across nodes, separator consistency, uniform leaf depth,
// and the leaf chain covering exactly the keys in order. Intended for
// tests.
func (t *Tree) CheckInvariants() error {
	type bound struct{ lo, hi []byte } // lo ≤ keys < hi (nil = unbounded)
	leafDepth := -1
	var leaves []storage.PageID
	var walk func(pid storage.PageID, depth int, b bound) error
	walk = func(pid storage.PageID, depth int, b bound) error {
		fr, n, err := t.load(pid)
		if err != nil {
			return err
		}
		defer fr.Unpin()
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree %s: page %v: keys out of order", t.name, pid)
			}
		}
		for _, k := range n.keys {
			if b.lo != nil && bytes.Compare(k, b.lo) < 0 {
				return fmt.Errorf("btree %s: page %v: key below lower bound", t.name, pid)
			}
			if b.hi != nil && bytes.Compare(k, b.hi) >= 0 {
				return fmt.Errorf("btree %s: page %v: key above upper bound", t.name, pid)
			}
		}
		if n.size() > t.pool.Disk().PageSize() {
			return fmt.Errorf("btree %s: page %v: node overflows page", t.name, pid)
		}
		if n.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree %s: leaves at depths %d and %d", t.name, leafDepth, depth)
			}
			leaves = append(leaves, pid)
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree %s: page %v: %d children for %d keys", t.name, pid, len(n.children), len(n.keys))
		}
		for i, c := range n.children {
			cb := b
			if i > 0 {
				cb.lo = n.keys[i-1]
			}
			if i < len(n.keys) {
				cb.hi = n.keys[i]
			}
			if err := walk(c, depth+1, cb); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, bound{}); err != nil {
		return err
	}
	if leafDepth != t.height {
		return fmt.Errorf("btree %s: recorded height %d, actual leaf depth %d", t.name, t.height, leafDepth)
	}
	// The leaf chain must enumerate the same leaves in the same order.
	var chain []storage.PageID
	pid := leaves[0]
	for !pid.IsNil() {
		chain = append(chain, pid)
		fr, n, err := t.load(pid)
		if err != nil {
			return err
		}
		pid = n.next
		fr.Unpin()
	}
	if len(chain) != len(leaves) {
		return fmt.Errorf("btree %s: leaf chain has %d leaves, tree has %d", t.name, len(chain), len(leaves))
	}
	for i := range chain {
		if chain[i] != leaves[i] {
			return fmt.Errorf("btree %s: leaf chain order diverges at %d", t.name, i)
		}
	}
	// Entry count must match.
	n := 0
	if err := t.Scan(func(k, v []byte) bool { n++; return true }); err != nil {
		return err
	}
	if n != t.count {
		return fmt.Errorf("btree %s: scan found %d entries, count says %d", t.name, n, t.count)
	}
	// Every page must decode back to exactly what a re-serialization
	// would store — the round-trip check for the compressed format.
	return nil
}
