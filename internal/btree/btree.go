// Package btree implements a disk-oriented B⁺-tree over byte-string keys,
// stored on simulated pages (package storage). Access support relation
// partitions are stored in two such trees each — one clustered on the
// first OID column and one on the last (§5.2, following Valduriez's join
// indices) — so every tree operation's page accesses are observable
// through the buffer pool and comparable with the analytical quantities
// ht, pg and nlp of the paper's cost model.
//
// Pages use prefix truncation (format version 2): every entry after the
// first stores only the length of the prefix it shares with the page's
// low key plus the remaining suffix. Composite-OID keys share long
// leading prefixes within a partition, so compressed pages hold
// substantially more keys — which directly lowers the cost model's ht
// and pg. Internal separators are additionally suffix-truncated at
// splits and bulk loads: the stored separator is the shortest byte
// string that still divides the two children. Format-v1 pages (written
// before compression) are rejected with ErrPageFormat; the owning
// partition is rebuilt via BulkLoad (see asr.OpenFrom / Index.Repair).
//
// Deletion removes entries without merging underfull nodes; empty leaves
// remain in the chain until the tree is rebuilt. This mirrors the
// deferred-compaction behaviour of production B-trees (e.g. PostgreSQL
// only reclaims entirely empty pages asynchronously) and keeps deletion
// strictly local. Scans skip empty leaves; the hops they cost are
// counted in btree_empty_leaf_hops_total.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"asr/internal/storage"
)

// On-page node layout, format version 2.
//
//	header:  tag(1) count(2) ptr0(8)            — 11 bytes
//	leaf:    tag = leafTag, ptr0 = right sibling
//	         entry_i: prefixLen(2) suffixLen(2) valLen(2) suffix val
//	inner:   tag = internalTag, ptr0 = children[0]
//	         entry_i: prefixLen(2) suffixLen(2) suffix child(8)
//
// key_i = lowKey[:prefixLen_i] + suffix_i, where lowKey is the page's
// first key (entry 0, stored with prefixLen 0). Keys are sorted, so
// prefix lengths against the low key are non-increasing — decoding can
// rebuild each key by truncating the previous one.
const (
	pageFormatVersion     = 2
	leafNode              = 0 // in-memory node kind
	internalNode          = 1
	leafTag               = 0x02 // on-page tag: kind | version<<1
	internalTag           = 0x03
	headerSize            = 11 // tag byte + count uint16 + first pointer uint64
	entryOverheadLeaf     = 6  // prefixLen + suffixLen + valLen uint16s
	entryOverheadInternal = 12 // prefixLen + suffixLen uint16s + child uint64
)

// ErrPageFormat reports a page holding a node in an unsupported on-disk
// format — typically a file written before prefix compression (format
// version 1). The data is not damaged, just unreadable by this code:
// reopening quarantines the owning index and Repair rebuilds it in the
// current format from the live object base.
var ErrPageFormat = errors.New("btree: unsupported page format")

// FormatVersion returns the page-format version this package writes.
func FormatVersion() int { return pageFormatVersion }

// Tree is a B⁺-tree rooted at a page. The zero value is not usable; use
// New.
type Tree struct {
	pool    *storage.BufferPool
	name    string
	root    storage.PageID
	height  int // number of levels including the leaf level
	count   int // live entries
	maxKey  int
	maxItem int
}

// derivedLimits computes the per-tree key and entry bounds from the page
// size. maxKey applies to the full (uncompressed) key: a page's low key
// is always stored without a prefix, so the limit must hold even when
// compression saves nothing — a quarter page keeps several separators
// per internal node in the worst case. maxItem bounds one leaf entry
// stored at prefixLen 0 (key + value + overhead) to half a page's entry
// space, so a leaf one edit overflowed always has a split point where
// both halves fit (splitPoint). A new low key goes left alone, the old
// page right. Otherwise, with the edited entry E bytes and the page's
// entries before and after it A and T bytes (H + A + T ≤ P): either the
// left half can take the entry (H + A + E ≤ P), or T < E and the right
// half starting at the entry takes H + E + T < H + 2E ≤ P bytes.
func derivedLimits(pageSize int) (maxKey, maxItem int) {
	return pageSize / 4, (pageSize - headerSize) / 2
}

// New creates an empty tree whose pages come from pool. Keys are limited
// to a quarter page so internal nodes always hold several separators.
func New(pool *storage.BufferPool, name string) (*Tree, error) {
	t := &Tree{
		pool:   pool,
		name:   name,
		height: 1,
	}
	t.maxKey, t.maxItem = derivedLimits(pool.Disk().PageSize())
	fr, err := pool.GetNew()
	if err != nil {
		return nil, err
	}
	t.root = fr.ID()
	writeNode(fr, &node{typ: leafNode})
	fr.Unpin()
	return t, nil
}

// Open reattaches a tree persisted earlier: root page, height and
// entry count come from durable metadata (an asr partition's meta
// page), the pages themselves from pool's device. No pages are read —
// the first lookup validates the root the usual way.
func Open(pool *storage.BufferPool, name string, root storage.PageID, height, count int) *Tree {
	t := &Tree{
		pool:   pool,
		name:   name,
		root:   root,
		height: height,
		count:  count,
	}
	t.maxKey, t.maxItem = derivedLimits(pool.Disk().PageSize())
	return t
}

// Mark is an opaque snapshot of a tree's mutable metadata (root page,
// height, entry count). Together with a storage.UndoTxn capturing the
// page mutations, restoring a Mark rewinds the tree to the state it had
// when the mark was taken — the mechanism transactional index
// maintenance uses to roll back a partially applied update.
type Mark struct {
	root   storage.PageID
	height int
	count  int
}

// Mark snapshots the tree's mutable metadata. The caller must hold the
// lock that serializes mutations of this tree (in this repository: the
// owning partition's or segment's write lock).
func (t *Tree) Mark() Mark {
	return Mark{root: t.root, height: t.height, count: t.count}
}

// Restore rewinds the tree's metadata to a previously taken Mark; the
// caller is responsible for restoring the page contents (via
// storage.UndoTxn.Rollback) under the same lock.
func (t *Tree) Restore(m Mark) {
	t.root, t.height, t.count = m.root, m.height, m.count
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels including the leaf level. The
// paper's ht quantity excludes leaves; use Height()-1 for that.
func (t *Tree) Height() int { return t.height }

// Root returns the root page id.
func (t *Tree) Root() storage.PageID { return t.root }

// node is the decoded, mutable form of a tree page — what a page becomes
// only where it is rewritten whole (a leaf an Update gives a new low key
// or splits, an internal node a split posts a separator into, a page
// being built) or inspected whole (ComputeStats, CheckInvariants, Drop).
// Lookups, scans and the internal levels of an Update never build one:
// they search the pinned frame in place through a cursor, which is also
// the only parser a node is decoded by; every other leaf edit is spliced
// into the frame's bytes (splice). Decoded keys live in one arena
// allocation per node; decoded leaf values alias the pinned frame's
// bytes directly (zero-copy) and are valid only while the frame stays
// pinned.
// writeNode serializes through a scratch buffer, so a node whose values
// alias the very frame being rewritten is safe.
type node struct {
	typ      byte
	keys     [][]byte
	vals     [][]byte         // leaf only, parallel to keys
	children []storage.PageID // internal only, len(keys)+1
	next     storage.PageID   // leaf only: right sibling
}

func (n *node) isLeaf() bool { return n.typ == leafNode }

// lcp returns the length of the longest common prefix of a and b.
func lcp(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// shortestSeparator returns the shortest key s with last < s ≤ first —
// the suffix-truncated separator stored in internal nodes at splits and
// bulk loads. Requires last < first (strictly); a nil last means no
// left bound, so first itself is the tightest choice.
func shortestSeparator(last, first []byte) []byte {
	if len(last) == 0 {
		return append([]byte(nil), first...)
	}
	// last < first, so either last is a proper prefix of first or the
	// two differ at byte n with first[n] > last[n]; either way the first
	// n+1 bytes of first are strictly above last and at most first.
	n := lcp(last, first) + 1
	if n > len(first) {
		n = len(first)
	}
	return append([]byte(nil), first[:n]...)
}

// size returns the serialized byte size under prefix truncation against
// the node's current low key.
func (n *node) size() int { return n.sizeOf(0, len(n.keys)) }

// sizeOf returns the serialized byte size of a node holding entries
// [lo, hi) of n, keys[lo] its low key.
func (n *node) sizeOf(lo, hi int) int {
	s := headerSize
	for i := lo; i < hi; i++ {
		pl := 0
		if i > lo {
			pl = lcp(n.keys[lo], n.keys[i])
		}
		s += n.entrySize(i, pl)
	}
	return s
}

// entrySize returns the serialized size of entry i stored with prefix
// length pl.
func (n *node) entrySize(i, pl int) int {
	if n.isLeaf() {
		return entryOverheadLeaf + len(n.keys[i]) - pl + len(n.vals[i])
	}
	return entryOverheadInternal + len(n.keys[i]) - pl
}

// uncompressedSize returns what the node would occupy without prefix
// truncation (full keys, format-v1 overheads) — the before-compression
// yardstick reported by Stats.
func (n *node) uncompressedSize() int {
	const v1OverheadLeaf, v1OverheadInternal = 4, 10
	s := headerSize
	for i, k := range n.keys {
		if n.isLeaf() {
			s += v1OverheadLeaf + len(k) + len(n.vals[i])
		} else {
			s += v1OverheadInternal + len(k)
		}
	}
	return s
}

// readNode decodes the page held by fr: the cursor's validation walk,
// then one pass building the node.
func readNode(fr *storage.Frame) (*node, error) {
	c, err := openPage(fr, nil)
	if err != nil {
		return nil, err
	}
	return c.decode(), nil
}

// scratch pools serialization buffers: writeNode renders the node off to
// the side first, because a node decoded from the very frame being
// rewritten holds values aliasing that frame's bytes.
var scratch = sync.Pool{New: func() any { b := make([]byte, 0, storage.DefaultPageSize); return &b }}

func writeNode(fr *storage.Frame, n *node) {
	telNodeWrites.Inc()
	data := fr.Data()
	bufp := scratch.Get().(*[]byte)
	buf := (*bufp)[:0]

	tag := byte(leafTag)
	if !n.isLeaf() {
		tag = internalTag
	}
	var hdr [headerSize]byte
	hdr[0] = tag
	binary.BigEndian.PutUint16(hdr[1:3], uint16(len(n.keys)))
	if n.isLeaf() {
		binary.BigEndian.PutUint64(hdr[3:11], uint64(n.next))
	} else {
		binary.BigEndian.PutUint64(hdr[3:11], uint64(n.children[0]))
	}
	buf = append(buf, hdr[:]...)

	var low []byte
	if len(n.keys) > 0 {
		low = n.keys[0]
	}
	for i, k := range n.keys {
		pl := 0
		if i > 0 {
			pl = lcp(low, k)
		}
		if n.isLeaf() {
			buf = appendEntry(buf, true, k, pl, n.vals[i], 0)
		} else {
			buf = appendEntry(buf, false, k, pl, nil, n.children[i+1])
		}
	}
	if len(buf) > len(data) {
		panic(fmt.Sprintf("btree: node of %d bytes overflows %d-byte page", len(buf), len(data)))
	}
	copy(data, buf)
	for i := len(buf); i < len(data); i++ {
		data[i] = 0
	}
	*bufp = buf[:0]
	scratch.Put(bufp)
	fr.MarkDirty()
}

// appendEntry appends one entry in the on-page format to dst: key
// stored as its pl bytes shared with the page's low key plus the rest,
// followed by val on a leaf or by child on an internal node. It is the
// format's one encoder — writeNode renders every entry of a page
// through it, splice the one entry it edits in place.
func appendEntry(dst []byte, leaf bool, key []byte, pl int, val []byte, child storage.PageID) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(pl))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)-pl))
	if !leaf {
		dst = append(dst, key[pl:]...)
		return binary.BigEndian.AppendUint64(dst, uint64(child))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	dst = append(dst, key[pl:]...)
	return append(dst, val...)
}

// splice applies one leaf edit to the page c was opened on, in the
// frame's bytes: the entry at c's position is inserted (!found), removed
// (!keep) or given val, the rest of the page is shifted by the size
// difference and the freed tail zeroed. It declines, writing nothing,
// where the page's other entries would need re-encoding — an insert
// below the low key or removal of the low key of a page that keeps
// other entries — or where the result overflows the page; both are left
// to decode and writeNode or a split. Every other page it leaves
// byte-identical to writeNode(decode(page)) after the same edit.
//
// val may alias the page only as (part of) the entry's own value, as
// the value Update's fn borrowed and handed back.
func splice(c *cursor, key, val []byte, found, keep bool) bool {
	pos, data := c.i, c.data
	if pos == 0 && (!found && c.cnt > 0 || !keep && c.cnt > 1) {
		return false // a new low key: every prefix length may change
	}
	used := headerSize
	if c.cnt > 0 {
		used = c.last.end
	}
	at, oldLen := used, 0 // where the entry's header starts, its length
	if pos < c.cnt {
		at = c.at - entryOverheadLeaf
	}
	if found {
		oldLen = c.end - at
	}
	pl, newLen := 0, 0
	if keep {
		if pos > 0 {
			pl = lcp(c.low, key)
		}
		newLen = entryOverheadLeaf + len(key) - pl + len(val)
	}
	end := used + newLen - oldLen
	if end > len(data) {
		return false
	}
	// A grown entry needs its room before it is written; a shrunk one is
	// written before the tail moves left over what val may still alias.
	if newLen > oldLen {
		copy(data[at+newLen:end], data[at+oldLen:used])
	}
	if keep {
		appendEntry(data[:at], true, key, pl, val, 0)
	}
	if newLen <= oldLen {
		copy(data[at+newLen:end], data[at+oldLen:used])
		clear(data[end:used])
	}
	cnt := c.cnt
	if !found {
		cnt++
	} else if !keep {
		cnt--
	}
	binary.BigEndian.PutUint16(data[1:3], uint16(cnt))
	return true
}

// open pins the page, validates it whole and searches it for key,
// returning a cursor over the frame's bytes; nothing is decoded.
func (t *Tree) open(pid storage.PageID, key []byte) (*storage.Frame, cursor, error) {
	telNodeReads.Inc()
	fr, err := t.pool.Get(pid)
	if err != nil {
		return nil, cursor{}, err
	}
	c, err := openPage(fr, key)
	if err != nil {
		fr.Unpin()
		return nil, cursor{}, fmt.Errorf("btree %s: %w", t.name, err)
	}
	return fr, c, nil
}

// load fetches and decodes a node, returning the pinned frame.
func (t *Tree) load(pid storage.PageID) (*storage.Frame, *node, error) {
	fr, c, err := t.open(pid, nil)
	if err != nil {
		return nil, nil, err
	}
	return fr, c.decode(), nil
}

type splitResult struct {
	sep   []byte
	right storage.PageID
}

// Update is the tree's one mutating descent: it walks root to leaf once
// for key and lets fn decide the entry's fate there. fn receives the
// current value (found false when the key is absent) and returns the
// value to store and whether an entry should exist afterwards:
//
//	found,  keep  → the value is replaced
//	found,  !keep → the entry is removed
//	absent, keep  → the entry is inserted
//	absent, !keep → nothing happens, no page is written
//
// old is BORROWED (it aliases the pinned leaf, see Visit) and valid only
// until fn returns, though fn may hand it back as val. A read-modify-
// write such as a reference-count bump therefore costs one descent, not
// a Get followed by an Insert. The leaf is not decoded: the edit is
// spliced into its bytes — a same-length value overwritten where it
// lies, an inserted, removed or resized entry shifting the page's tail —
// unless it changes the leaf's low key or overflows the page. Insert and
// Delete are Update with a constant decision.
func (t *Tree) Update(key []byte, fn func(old []byte, found bool) (val []byte, keep bool)) error {
	delta, split, err := t.update(t.root, key, fn)
	if err != nil {
		return err
	}
	if split != nil {
		fr, err := t.pool.GetNew()
		if err != nil {
			return err
		}
		newRoot := &node{
			typ:      internalNode,
			keys:     [][]byte{split.sep},
			children: []storage.PageID{t.root, split.right},
		}
		writeNode(fr, newRoot)
		t.root = fr.ID()
		fr.Unpin()
		t.height++
	}
	t.count += delta
	return nil
}

// Insert stores key→val, replacing any existing value for an equal key.
// It reports whether the key was newly inserted.
func (t *Tree) Insert(key, val []byte) (added bool, err error) {
	err = t.Update(key, func(_ []byte, found bool) ([]byte, bool) {
		added = !found
		return val, true
	})
	return added && err == nil, err
}

// Delete removes the entry under key, reporting whether one existed.
func (t *Tree) Delete(key []byte) (existed bool, err error) {
	err = t.Update(key, func(_ []byte, found bool) ([]byte, bool) {
		existed = found
		return nil, false
	})
	return existed && err == nil, err
}

// checkEntry enforces the size limits on an entry about to be stored.
func (t *Tree) checkEntry(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree %s: empty key", t.name)
	}
	if len(key) > t.maxKey {
		return fmt.Errorf("btree %s: key of %d bytes exceeds limit %d", t.name, len(key), t.maxKey)
	}
	if len(key)+len(val)+entryOverheadLeaf > t.maxItem {
		return fmt.Errorf("btree %s: entry of %d bytes exceeds page capacity", t.name, len(key)+len(val))
	}
	return nil
}

// update is the recursive step of Update. It returns the change in the
// entry count (+1 inserted, −1 removed, 0 otherwise) and, when the node
// at pid overflowed, the split to post into the parent.
func (t *Tree) update(pid storage.PageID, key []byte, fn func([]byte, bool) ([]byte, bool)) (int, *splitResult, error) {
	fr, c, err := t.open(pid, key)
	if err != nil {
		return 0, nil, err
	}
	defer fr.Unpin()

	if !c.leaf {
		// Internal levels are searched in place; the page is decoded only
		// when the child's split posts a separator into it.
		delta, childSplit, err := t.update(c.down, key, fn)
		if err != nil || childSplit == nil {
			return delta, nil, err
		}
		// Internal separator semantics: child[i] covers keys < keys[i];
		// equal keys go right.
		pos := c.i
		if c.equal {
			pos++
		}
		n := c.decode()
		n.keys = insertBytes(n.keys, pos, childSplit.sep)
		n.children = insertPages(n.children, pos+1, childSplit.right)
		if n.size() <= t.pool.Disk().PageSize() {
			writeNode(fr, n)
			return delta, nil, nil
		}
		split, err := t.splitInternal(fr, n)
		return delta, split, err
	}

	// fn decides on the value borrowed straight off the frame. An absent
	// key fn does not keep leaves the page alone; any other edit is
	// spliced into the frame's bytes where the page's low key survives it
	// and the page still holds it. Only an edit of the low key and a split
	// decode the page.
	pos, found := c.i, c.equal // where the search of the page left the cursor
	var old []byte
	if found {
		old = c.val(c.entry)
	}
	val, keep := fn(old, found)
	if !found && !keep {
		return 0, nil, nil
	}
	if keep {
		if err := t.checkEntry(key, val); err != nil {
			return 0, nil, err
		}
	}
	delta := 0
	if !found {
		delta = 1
	} else if !keep {
		delta = -1
	}
	if splice(&c, key, val, found, keep) {
		telNodeWrites.Inc()
		telLeafSplices.Inc()
		fr.MarkDirty()
		return delta, nil, nil
	}
	n := c.decode()
	switch {
	case !keep:
		n.keys = append(n.keys[:pos], n.keys[pos+1:]...)
		n.vals = append(n.vals[:pos], n.vals[pos+1:]...)
	case found:
		n.vals[pos] = val
	default:
		n.keys = insertBytes(n.keys, pos, append([]byte(nil), key...))
		n.vals = insertBytes(n.vals, pos, val)
	}
	if n.size() <= t.pool.Disk().PageSize() {
		writeNode(fr, n)
		return delta, nil, nil
	}
	split, err := t.splitLeaf(fr, n)
	return delta, split, err
}

// splitLeaf moves the upper half of a leaf to a fresh page. The
// separator is suffix-truncated: the shortest key strictly above the
// left node's last key and at most the right node's first key.
func (t *Tree) splitLeaf(fr *storage.Frame, n *node) (*splitResult, error) {
	telSplits.Inc()
	mid := splitPoint(n, t.pool.Disk().PageSize())
	rightFr, err := t.pool.GetNew()
	if err != nil {
		return nil, err
	}
	defer rightFr.Unpin()
	right := &node{
		typ:  leafNode,
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([][]byte(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.next = rightFr.ID()
	writeNode(rightFr, right)
	writeNode(fr, n)
	sep := shortestSeparator(n.keys[len(n.keys)-1], right.keys[0])
	return &splitResult{sep: sep, right: rightFr.ID()}, nil
}

// splitInternal promotes the middle key and moves the upper half of an
// internal node to a fresh page. The promoted separator is passed up
// as-is: it already bounds the two halves, and without the subtree's
// extreme keys no tighter truncation is possible.
func (t *Tree) splitInternal(fr *storage.Frame, n *node) (*splitResult, error) {
	telSplits.Inc()
	mid := splitPoint(n, t.pool.Disk().PageSize())
	sep := append([]byte(nil), n.keys[mid]...)
	rightFr, err := t.pool.GetNew()
	if err != nil {
		return nil, err
	}
	defer rightFr.Unpin()
	right := &node{
		typ:      internalNode,
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]storage.PageID(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	writeNode(rightFr, right)
	writeNode(fr, n)
	return &splitResult{sep: sep, right: rightFr.ID()}, nil
}

// splitPoint picks where an overflowing node splits: a leaf keeps
// entries [0, mid) and moves the rest right; an internal node keeps
// [0, mid), promotes keys[mid] and moves the rest right. The first
// choice puts the serialized (compressed) left half nearest to half the
// node size, pricing entries against the current low key — exact for
// the left half, conservative for the right (its prefixes only grow
// against its new low key). A low key sharing little with the keys
// after it — a short key inserted below a page of long shared-prefix
// keys — inflates the whole node and can push that left half past the
// page; the split then moves to the nearest point where both halves
// fit, which the entry limits guarantee exists (derivedLimits).
func splitPoint(n *node, pageSize int) int {
	mid := balancedSplit(n)
	if !n.isLeaf() {
		mid = min(max(mid, 1), len(n.keys)-1)
	}
	fits := func(m int) bool {
		right := m
		if !n.isLeaf() {
			right++ // keys[m] moves up, not right
		}
		return n.sizeOf(0, m) <= pageSize && n.sizeOf(right, len(n.keys)) <= pageSize
	}
	for d := 0; d < len(n.keys); d++ {
		if m := mid - d; m >= 1 && fits(m) {
			return m
		}
		if m := mid + d; m < len(n.keys) && fits(m) {
			return m
		}
	}
	return mid // unreachable within the entry limits; writeNode reports the overflow
}

// balancedSplit returns the index at which the compressed first half is
// nearest to half the node size, measured against the current low key.
func balancedSplit(n *node) int {
	total := n.size() - headerSize
	half := total / 2
	low := n.keys[0]
	acc := 0
	for i, k := range n.keys {
		pl := 0
		if i > 0 {
			pl = lcp(low, k)
		}
		acc += n.entrySize(i, pl)
		if acc >= half {
			// Keep at least one entry on each side.
			if i+1 >= len(n.keys) {
				return len(n.keys) - 1
			}
			return i + 1
		}
	}
	return len(n.keys) / 2
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPages(s []storage.PageID, i int, v storage.PageID) []storage.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
