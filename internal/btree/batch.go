package btree

import (
	"bytes"
	"sort"

	"asr/internal/storage"
)

// VisitIndexed is called with the index of the matching prefix and each
// matching entry; returning false stops the whole scan. Key and value
// slices are BORROWED under the same zero-copy contract as Visit: valid
// only until the callback returns, never retained; copy what must be
// kept.
type VisitIndexed func(i int, key, val []byte) bool

// ScanPrefixes visits, for every prefix, each entry whose key starts
// with that prefix — the batch form of ScanPrefix. Prefixes are probed
// in sorted byte order regardless of input order (the index i passed to
// fn identifies the caller's prefix); entries within one prefix arrive
// in key order, exactly as ScanPrefix would deliver them. Duplicate and
// overlapping prefixes are allowed; each input index receives its full
// match set.
//
// The scan keeps its current leaf pinned between probes: a sorted probe
// that lands in that leaf costs no page at all; any other probe costs
// one root-to-leaf descent plus the leaves holding its matches — the
// price §5.2 and eq. 35 put on a clustered probe. The scan never walks
// the leaf chain to reach a probe: the leaves between two far-apart
// probes hold nothing either wants.
func (t *Tree) ScanPrefixes(prefixes [][]byte, fn VisitIndexed) error {
	if len(prefixes) == 0 || t.root.IsNil() {
		return nil
	}
	order := make([]int, len(prefixes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(prefixes[order[a]], prefixes[order[b]]) < 0
	})

	// The currently pinned leaf and the cursor over it, or fr == nil
	// between leaves. passed is the largest key in any leaf the scan has
	// moved beyond — keys ≤ passed live strictly before the current leaf.
	// key holds the one materialized key handed to fn, grown to the
	// longest handed so far rather than to maxKey: a probe materializes a
	// few short keys, not a page's worth. sought reports that the leaf
	// was opened for — its cursor stands at — the prefix now being probed.
	var (
		fr     *storage.Frame
		c      cursor
		sought bool
		passed []byte
		key    []byte
	)
	release := func() {
		if fr != nil {
			fr.Unpin()
			fr = nil
		}
	}
	defer release()

	// descend repositions the scan at the leaf that would contain the
	// first key ≥ start, mirroring scanFrom's descent.
	descend := func(start []byte) (err error) {
		release()
		passed = nil
		fr, c, err = t.leafFor(start)
		sought = true
		return err
	}
	// advance moves to the next non-empty leaf in the chain, leaving
	// fr == nil at the end of the chain. Empty leaves left behind by
	// deletion are hopped over, counted by the telemetry counter that
	// makes the deferred-compaction cost observable.
	advance := func(p []byte) (err error) {
		for {
			if c.cnt > 0 {
				passed = c.appendKey(passed[:0], c.last)
			}
			next := c.ptr0
			release()
			if next.IsNil() {
				return nil
			}
			if fr, c, err = t.open(next, p); err != nil {
				return err
			}
			sought = true
			if c.cnt > 0 {
				return nil
			}
			telEmptyLeafHops.Inc()
		}
	}

	for _, oi := range order {
		p := prefixes[oi]
		// The pinned leaf answers p when it holds a key ≥ p (or is the
		// last leaf) and p lies past every key the scan has moved beyond:
		// a key matching p compares ≥ p, so matches hide behind the
		// cursor only when p ≤ passed (duplicate or overlapping prefixes
		// whose earlier matches advanced it past a leaf). Any other probe
		// re-descends from the root.
		if fr == nil || passed != nil && bytes.Compare(p, passed) <= 0 ||
			!c.ptr0.IsNil() && (c.cnt == 0 || c.compare(c.last, p, lcp(p, c.low)) < 0) {
			if err := descend(p); err != nil {
				return err
			}
		}

		// Emit matches, following the leaf chain while the prefix
		// holds (matches may span leaves; deletion leaves empty leaves
		// in the chain). The cursor ends on the leaf holding the first
		// key past the matches — where the next sorted probe starts.
		done := false
		for !done && fr != nil {
			if !sought {
				c.seek(p) // the leaf an earlier prefix ended on
			}
			sought = false
			for ok := c.i < c.cnt; ok; ok = c.next() {
				key = c.appendKey(key[:0], c.entry)
				if !bytes.HasPrefix(key, p) {
					done = true
					break
				}
				// Zero-copy: the value is borrowed from this leaf, which
				// stays pinned until fn returns; the key from the scan's
				// buffer.
				if !fn(oi, key, c.val(c.entry)) {
					return nil
				}
			}
			if done {
				break
			}
			if err := advance(p); err != nil {
				return err
			}
		}
	}
	return nil
}
