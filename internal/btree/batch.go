package btree

import (
	"bytes"
	"sort"

	"asr/internal/storage"
)

// maxBatchHops bounds how many leaf-chain hops a batch scan takes to
// reach the next probe before giving up and re-descending from the
// root. Sorted probes over a clustered tree usually land on the same
// or the next leaf; widely spaced probes fall back to an ordinary
// O(height) descent.
const maxBatchHops = 4

// VisitIndexed is called with the index of the matching prefix and each
// matching entry; returning false stops the whole scan. Key and value
// slices are BORROWED under the same zero-copy contract as Visit: valid
// only until the callback returns, never retained. Wrap with
// CopiedIndexed to receive owned copies.
type VisitIndexed func(i int, key, val []byte) bool

// ScanPrefixes visits, for every prefix, each entry whose key starts
// with that prefix — the batch form of ScanPrefix. Prefixes are probed
// in sorted byte order regardless of input order (the index i passed to
// fn identifies the caller's prefix); entries within one prefix arrive
// in key order, exactly as ScanPrefix would deliver them. Duplicate and
// overlapping prefixes are allowed; each input index receives its full
// match set.
//
// The scan keeps its current leaf pinned between probes: an adjacent
// sorted probe that lands on the same or a nearby leaf is resolved by
// at most maxBatchHops leaf-chain hops instead of a root-to-leaf
// descent. Sorting a batch of random probes thus turns O(batch·height)
// page pins into a near-sequential walk of the touched leaves.
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
	// key holds the one materialized key handed to fn; no stored key is
	// longer than maxKey, so it never grows. sought reports that the leaf
	// was opened for — its cursor stands at — the prefix now being probed.
	var (
		fr     *storage.Frame
		c      cursor
		sought bool
		passed []byte
		key    = make([]byte, 0, t.maxKey)
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
	// deletion are hopped over for free — they never count against the
	// maxBatchHops budget, only against the telemetry counter that makes
	// the deferred-compaction cost observable.
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
		// A key matching p compares ≥ p, so matches can hide behind the
		// cursor only when p ≤ passed (duplicate or overlapping
		// prefixes whose earlier matches advanced the cursor past a
		// leaf). Everything else is at or ahead of the current leaf.
		if fr != nil && passed != nil && bytes.Compare(p, passed) <= 0 {
			if err := descend(p); err != nil {
				return err
			}
		}
		// Hop forward while this leaf cannot contain a key ≥ p; bail
		// into a root descent if the probe is far away.
		for hops := 0; fr != nil; hops++ {
			if c.cnt > 0 && c.compare(c.last, p, lcp(p, c.low)) >= 0 {
				break
			}
			if c.ptr0.IsNil() {
				break // off the end of the chain: no match for p
			}
			if hops >= maxBatchHops {
				if err := descend(p); err != nil {
					return err
				}
				break
			}
			if err := advance(p); err != nil {
				return err
			}
		}
		if fr == nil {
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
