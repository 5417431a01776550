package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"asr/internal/storage"
)

// entry is one decoded entry header of a page: where in the frame the
// entry's bytes lie. key_i is low[:pl] + suffix, never built unless asked
// for (cursor.appendKey); the value of a leaf entry, or the child pointer
// of an internal one, trails the suffix.
type entry struct {
	pl  int // bytes the key shares with the page's low key
	at  int // offset of the suffix, the rest of the key
	sl  int // length of the suffix
	end int // offset past the entry: of the next entry's header
}

// cursor is the package's one parser of the on-page node format. It
// walks the entry headers of a pinned frame in place: nothing is copied
// and nothing is allocated, keys are compared as low[:pl] + suffix
// (compare), and a caller that must hand a key out materializes only
// that key (appendKey). openPage walks — and so validates — every entry
// of the page before any caller sees the cursor, exactly the checks a
// full decode makes, and finds the caller's key on the way; afterwards
// next cannot fail while the frame stays pinned. A page is decoded into
// a node (decode) only where it is about to be rewritten or inspected
// whole.
type cursor struct {
	id   storage.PageID
	data []byte
	leaf bool
	cnt  int            // entries on the page
	ptr0 storage.PageID // leaf: right sibling; internal: children[0]
	low  []byte         // entry 0's key, stored whole
	last entry          // the page's last entry (zero when cnt == 0)

	i     int // index of the current entry, -1 before the first, cnt past the last
	entry     // the current entry, valid while 0 ≤ i < cnt
	err   error

	// What seek found: whether the current entry equals the key sought,
	// and for an internal page the child whose subtree covers that key
	// (child[i] holds the keys below separator i, equal keys go right).
	equal bool
	down  storage.PageID
}

// openPage validates the whole page held by fr — the node tag, and for
// every entry the four bounds a decode depends on — and returns a cursor
// positioned by seek(key).
func openPage(fr *storage.Frame, key []byte) (cursor, error) {
	data := fr.Data()
	c := cursor{id: fr.ID(), data: data}
	switch data[0] {
	case leafTag:
		c.leaf = true
	case internalTag:
	case 0x00, 0x01:
		return cursor{}, fmt.Errorf("btree: page %v holds a format-v1 (uncompressed) node; rebuild the index: %w",
			fr.ID(), ErrPageFormat)
	default:
		return cursor{}, fmt.Errorf("btree: page %v: unknown node tag 0x%02x: %w", fr.ID(), data[0], ErrPageFormat)
	}
	c.cnt = int(binary.BigEndian.Uint16(data[1:3]))
	c.ptr0 = storage.PageID(binary.BigEndian.Uint64(data[3:11]))
	c.seek(key)
	if c.err != nil {
		return cursor{}, c.err
	}
	return c, nil
}

// rewind repositions the cursor before the first entry.
func (c *cursor) rewind() { c.i, c.end = -1, headerSize }

// next advances to the following entry, reporting false at the end of
// the page or — with c.err set — at an entry that runs past the page or
// claims more of the low key than there is.
func (c *cursor) next() bool {
	if c.i+1 >= c.cnt || c.err != nil {
		c.i = c.cnt
		return false
	}
	data, off := c.data, c.end
	var pl, sl, vl int
	if c.leaf {
		if off+6 > len(data) {
			return c.fail("entry header past page end")
		}
		h := data[off : off+6]
		pl, sl, vl = int(h[0])<<8|int(h[1]), int(h[2])<<8|int(h[3]), int(h[4])<<8|int(h[5])
		off += 6
	} else {
		if off+4 > len(data) {
			return c.fail("entry header past page end")
		}
		h := data[off : off+4]
		pl, sl, vl = int(h[0])<<8|int(h[1]), int(h[2])<<8|int(h[3]), 8 // the child pointer
		off += 4
	}
	end := off + sl + vl
	if end > len(data) {
		return c.fail("entry body past page end")
	}
	if c.i < 0 {
		if pl != 0 {
			return c.fail("low key stored with nonzero prefix length")
		}
		c.low = data[off : off+sl : off+sl]
	} else if pl > len(c.low) {
		return c.fail("prefix length exceeds low key")
	}
	c.i++
	c.pl, c.at, c.sl, c.end = pl, off, sl, end
	return true
}

func (c *cursor) fail(what string) bool {
	c.err = corruptNode(c.id, what)
	return false
}

// suffix, val and child read the parts of entry e off the frame.
func (c *cursor) suffix(e entry) []byte { return c.data[e.at : e.at+e.sl] }
func (c *cursor) val(e entry) []byte    { return c.data[e.at+e.sl : e.end : e.end] }
func (c *cursor) child(e entry) storage.PageID {
	return storage.PageID(binary.BigEndian.Uint64(c.data[e.at+e.sl : e.end]))
}

// compare orders the key of entry e against key without building it. m
// is lcp(key, low), computed once per search of a page.
func (c *cursor) compare(e entry, key []byte, m int) int {
	if e.pl <= m {
		// Both start with low[:pl]: the suffixes decide.
		return bytes.Compare(c.suffix(e), key[e.pl:])
	}
	// The entry follows low further than key does, so the two part at
	// byte m — where the entry holds low[m] — or key ends there.
	if m == len(key) || c.low[m] > key[m] {
		return 1
	}
	return -1
}

// appendKey appends the full key of entry e to dst.
func (c *cursor) appendKey(dst []byte, e entry) []byte {
	return append(append(dst, c.low[:e.pl]...), c.suffix(e)...)
}

// seek walks the page once, start to end, and leaves the cursor on the
// first entry whose key is ≥ key — findKey's position; c.i == c.cnt when
// there is none — with c.equal and c.down set. Every entry is decoded,
// and so checked, whether or not it is compared.
func (c *cursor) seek(key []byte) {
	c.rewind()
	c.equal, c.down = false, c.ptr0
	at, found := entry{}, -1
	m := -1 // lcp(key, low), known once entry 0 is
	for c.next() {
		if found >= 0 {
			continue
		}
		if m < 0 {
			m = lcp(key, c.low)
		}
		cmp := c.compare(c.entry, key, m)
		if cmp <= 0 && !c.leaf {
			c.down = c.child(c.entry)
		}
		if cmp >= 0 {
			at, found, c.equal = c.entry, c.i, cmp == 0
		}
	}
	c.last = c.entry
	if found >= 0 {
		c.entry, c.i = at, found
	}
}

// decode builds the in-memory node of the page: every key into one
// exactly-sized arena, leaf values aliasing the frame. The entry slices
// keep room for one more entry — a page is decoded to take an insert or
// a posted separator, which then needs no second allocation.
func (c *cursor) decode() *node {
	n := &node{typ: internalNode, keys: make([][]byte, c.cnt, c.cnt+1)}
	if c.leaf {
		n.typ = leafNode
		n.next = c.ptr0
		n.vals = make([][]byte, c.cnt, c.cnt+1)
	} else {
		n.children = make([]storage.PageID, c.cnt+1, c.cnt+2)
		n.children[0] = c.ptr0
	}
	size := 0 // of the arena: a search does not pay for what only a decode needs
	for c.rewind(); c.next(); {
		size += c.pl + c.sl
	}
	arena := make([]byte, 0, size)
	for c.rewind(); c.next(); {
		start := len(arena)
		arena = c.appendKey(arena, c.entry)
		n.keys[c.i] = arena[start:len(arena):len(arena)]
		if c.leaf {
			n.vals[c.i] = c.val(c.entry)
		} else {
			n.children[c.i+1] = c.child(c.entry)
		}
	}
	return n
}

func corruptNode(id storage.PageID, what string) error {
	return fmt.Errorf("btree: page %v: corrupt node: %s", id, what)
}
