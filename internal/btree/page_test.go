package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"asr/internal/storage"
)

// decodeReference is the two-pass page decoder the package used before
// pages were searched in place, kept here as the oracle: it shares no
// code with the cursor, so agreement between the two is evidence about
// both.
func decodeReference(id storage.PageID, data []byte) (*node, error) {
	n := &node{}
	switch data[0] {
	case leafTag:
		n.typ = leafNode
	case internalTag:
		n.typ = internalNode
	default:
		return nil, fmt.Errorf("btree: page %v: tag 0x%02x: %w", id, data[0], ErrPageFormat)
	}
	hdr := entryOverheadHdr(n.isLeaf())
	cnt := int(binary.BigEndian.Uint16(data[1:3]))
	ptr0 := storage.PageID(binary.BigEndian.Uint64(data[3:11]))
	off := headerSize
	for i := 0; i < cnt; i++ {
		if off+hdr > len(data) {
			return nil, corruptNode(id, "entry header past page end")
		}
		pl := int(binary.BigEndian.Uint16(data[off : off+2]))
		body := int(binary.BigEndian.Uint16(data[off+2 : off+4]))
		if n.isLeaf() {
			body += int(binary.BigEndian.Uint16(data[off+4 : off+6]))
		} else {
			body += 8
		}
		off += hdr
		if off+body > len(data) {
			return nil, corruptNode(id, "entry body past page end")
		}
		if i == 0 && pl != 0 {
			return nil, corruptNode(id, "low key stored with nonzero prefix length")
		}
		off += body
	}
	var low []byte
	n.keys = make([][]byte, cnt)
	if n.isLeaf() {
		n.next = ptr0
		n.vals = make([][]byte, cnt)
	} else {
		n.children = make([]storage.PageID, cnt+1)
		n.children[0] = ptr0
	}
	off = headerSize
	for i := 0; i < cnt; i++ {
		pl := int(binary.BigEndian.Uint16(data[off : off+2]))
		sl := int(binary.BigEndian.Uint16(data[off+2 : off+4]))
		vl := 0
		if n.isLeaf() {
			vl = int(binary.BigEndian.Uint16(data[off+4 : off+6]))
		}
		off += hdr
		if pl > len(low) {
			return nil, corruptNode(id, "prefix length exceeds low key")
		}
		k := append(append([]byte(nil), low[:pl]...), data[off:off+sl]...)
		if i == 0 {
			low = k
		}
		n.keys[i] = k
		off += sl
		if n.isLeaf() {
			n.vals[i] = data[off : off+vl]
			off += vl
		} else {
			n.children[i+1] = storage.PageID(binary.BigEndian.Uint64(data[off : off+8]))
			off += 8
		}
	}
	return n, nil
}

// findKey is binary search over decoded keys, the search the tree ran
// before pages were searched in place and the oracle for cursor.seek: it
// returns the smallest index with keys[i] >= key and whether it
// is an exact match.
func findKey(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], key)
}

// errClass sorts a page error into the classes callers can tell apart:
// none, the typed ErrPageFormat, or a corrupt node.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrPageFormat):
		return "format"
	default:
		return "corrupt"
	}
}

const searchPageSize = 512

// checkPageSearch holds one page image to the in-place search contract:
// the cursor accepts exactly the pages the reference decoder accepts
// (and rejects the others with the same class of error), readNode — a
// consumer of the cursor — decodes the node the reference decodes, and on
// a page whose keys are sorted, as every page the tree writes is, seek
// — its position, its equality, the child it leads down to — and the
// entries that follow agree with findKey over the decoded keys for every
// probe.
func checkPageSearch(t *testing.T, image []byte, probes [][]byte) {
	t.Helper()
	fr, err := bulkPool(searchPageSize).GetNew()
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Unpin()
	copy(fr.Data(), image)

	want, werr := decodeReference(fr.ID(), fr.Data())
	c, cerr := openPage(fr, nil)
	if errClass(cerr) != errClass(werr) {
		t.Fatalf("cursor error %v, reference decoder error %v", cerr, werr)
	}
	got, rerr := readNode(fr)
	if errClass(rerr) != errClass(werr) {
		t.Fatalf("readNode error %v, reference decoder error %v", rerr, werr)
	}
	if werr != nil {
		return
	}
	if got.typ != want.typ || got.next != want.next || len(got.keys) != len(want.keys) ||
		fmt.Sprint(got.children) != fmt.Sprint(want.children) {
		t.Fatalf("readNode = %+v, reference %+v", got, want)
	}
	for i, k := range want.keys {
		if !bytes.Equal(got.keys[i], k) || (want.isLeaf() && !bytes.Equal(got.vals[i], want.vals[i])) {
			t.Fatalf("entry %d: readNode %q→%q, reference %q→%q", i, got.keys[i], got.vals, k, want.vals)
		}
	}
	if c.cnt != len(want.keys) || c.leaf != want.isLeaf() {
		t.Fatalf("cursor header cnt=%d leaf=%v, reference %d/%v", c.cnt, c.leaf, len(want.keys), want.isLeaf())
	}
	if n := len(want.keys); n > 0 {
		if last := c.appendKey(nil, c.last); !bytes.Equal(last, want.keys[n-1]) {
			t.Fatalf("cursor last key %q, reference %q", last, want.keys[n-1])
		}
	}
	for i := 1; i < len(want.keys); i++ {
		if bytes.Compare(want.keys[i-1], want.keys[i]) >= 0 {
			return // not a page the tree writes: binary and linear search may differ
		}
	}

	for _, k := range want.keys {
		for l := 0; l <= len(k); l++ {
			probes = append(probes, k[:l])
		}
		probes = append(probes, append(append([]byte(nil), k...), 0))
	}
	var key []byte
	for _, p := range probes {
		pos, found := findKey(want.keys, p)
		c.seek(p)
		if c.i != pos || c.equal != found || c.err != nil {
			t.Fatalf("seek(%q) = entry %d equal=%v err=%v, findKey = %d found=%v", p, c.i, c.equal, c.err, pos, found)
		}
		if !want.isLeaf() {
			child := pos
			if found {
				child++
			}
			if c.down != want.children[child] {
				t.Fatalf("seek(%q) leads down to %v, reference child[%d] = %v", p, c.down, child, want.children[child])
			}
		}
		if n := len(want.keys); n > 0 && !bytes.Equal(c.appendKey(nil, c.last), want.keys[n-1]) {
			t.Fatalf("seek(%q) lost the page's last key: %q", p, c.appendKey(nil, c.last))
		}
		for i, ok := pos, pos < c.cnt; ok; i, ok = i+1, c.next() {
			key = c.appendKey(key[:0], c.entry)
			if !bytes.Equal(key, want.keys[i]) {
				t.Fatalf("after seek(%q): entry %d key %q, reference %q", p, i, key, want.keys[i])
			}
			if cmp := c.compare(c.entry, p, lcp(p, c.low)); cmp != bytes.Compare(key, p) {
				t.Fatalf("compare(entry %q, %q) = %d", key, p, cmp)
			}
			if want.isLeaf() && !bytes.Equal(c.val(c.entry), want.vals[i]) {
				t.Fatalf("after seek(%q): entry %d value %q, reference %q", p, i, c.val(c.entry), want.vals[i])
			}
			if !want.isLeaf() && c.child(c.entry) != want.children[i+1] {
				t.Fatalf("after seek(%q): entry %d child %v, reference %v", p, i, c.child(c.entry), want.children[i+1])
			}
		}
		if c.i != c.cnt || c.err != nil {
			t.Fatalf("after seek(%q): walk ended at entry %d of %d, err %v", p, c.i, c.cnt, c.err)
		}
	}
}

// treePages returns an image of every page of tr, root first.
func treePages(t testing.TB, tr *Tree) [][]byte {
	t.Helper()
	var pages [][]byte
	var walk func(pid storage.PageID)
	walk = func(pid storage.PageID) {
		fr, n, err := tr.load(pid)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, append([]byte(nil), fr.Data()...))
		fr.Unpin()
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return pages
}

// searchFixturePages are the pages of compress_test's shared-prefix
// fixture, built both ways: bulk-packed and split-grown, leaves and
// internal levels, with and without truncated separators.
func searchFixturePages(t testing.TB) [][]byte {
	var entries []KV
	for g := 0; g < 6; g++ {
		for i := 0; i < 40; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, i*7), Val: refVal(g*100 + i)})
		}
	}
	bulk, incr := buildBoth(t, searchPageSize, entries)
	return append(treePages(t, bulk), treePages(t, incr)...)
}

// corruptPages doctors a good leaf and a good internal page into one
// page of every class the decoder rejects.
func corruptPages(leaf, inner []byte) map[string][]byte {
	edit := func(page []byte, f func(p []byte)) []byte {
		p := append([]byte(nil), page...)
		f(p)
		return p
	}
	put16 := func(p []byte, off, v int) { binary.BigEndian.PutUint16(p[off:], uint16(v)) }
	second := func(p []byte, hdr int) int { // offset of entry 1's header
		body := int(binary.BigEndian.Uint16(p[headerSize+2:]))
		if hdr == 6 {
			return headerSize + hdr + body + int(binary.BigEndian.Uint16(p[headerSize+4:]))
		}
		return headerSize + hdr + body + 8
	}
	return map[string][]byte{
		"format-v1 tag":      edit(leaf, func(p []byte) { p[0] = 0x01 }),
		"unknown tag":        edit(inner, func(p []byte) { p[0] = 0x7f }),
		"header past end":    edit(leaf, func(p []byte) { put16(p, 1, 0xffff) }),
		"body past end":      edit(leaf, func(p []byte) { put16(p, second(p, 6)+2, 0xfff0) }),
		"inner body past":    edit(inner, func(p []byte) { put16(p, second(p, 4)+2, 0xfff0) }),
		"low key has prefix": edit(inner, func(p []byte) { put16(p, headerSize, 3) }),
		"prefix beyond low":  edit(leaf, func(p []byte) { put16(p, second(p, 6), 0x7fff) }),
	}
}

// TestPageSearchMatchesDecodedSearch is the differential test of the
// in-place search: every page of the fixture trees, every key, every
// prefix of every key, and one page of each corruption class.
func TestPageSearchMatchesDecodedSearch(t *testing.T) {
	pages := searchFixturePages(t)
	var leaf, inner []byte
	for _, p := range pages {
		checkPageSearch(t, p, [][]byte{nil, {}, []byte(sharedPrefix), {0xff}})
		if p[0] == leafTag && leaf == nil {
			leaf = p
		}
		if p[0] == internalTag && inner == nil {
			inner = p
		}
	}
	if leaf == nil || inner == nil {
		t.Fatal("fixture has no leaf or no internal page — test premise broken")
	}
	for name, p := range corruptPages(leaf, inner) {
		fr, err := bulkPool(searchPageSize).GetNew()
		if err != nil {
			t.Fatal(err)
		}
		copy(fr.Data(), p)
		_, cerr := openPage(fr, nil)
		fr.Unpin()
		if cerr == nil {
			t.Errorf("%s: cursor accepted the page", name)
		}
		checkPageSearch(t, p, nil)
	}
}

// FuzzPageSearch feeds arbitrary page images and probe keys through
// checkPageSearch, seeded with the fixture's pages and one page of each
// corruption class.
func FuzzPageSearch(f *testing.F) {
	pages := searchFixturePages(f)
	var leaf, inner []byte
	for _, p := range pages {
		f.Add(p, []byte(sharedPrefix))
		if p[0] == leafTag {
			leaf = p
		} else {
			inner = p
		}
	}
	for _, p := range corruptPages(leaf, inner) {
		f.Add(p, []byte{})
	}
	f.Fuzz(func(t *testing.T, image, probe []byte) {
		checkPageSearch(t, image, [][]byte{probe})
	})
}

// BenchmarkGet is a root-to-leaf lookup over full-size pages of
// shared-prefix keys: three pages searched in place per operation.
func BenchmarkGet(b *testing.B) {
	var entries []KV
	for g := 0; g < 64; g++ {
		for i := 0; i < 1000; i++ {
			entries = append(entries, KV{Key: prefixedKey(g, i), Val: refVal(i)})
		}
	}
	tr, err := BulkLoad(bulkPool(storage.DefaultPageSize), "bench", entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, ok, err := tr.Get(entries[(n*7919)%len(entries)].Key); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
	b.ReportMetric(float64(tr.Height()), "pages/op")
}
