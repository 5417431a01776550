package btree

// Helpers the package's tests use; no product code needs them.

// Get returns the value stored under key. The returned slice is an
// owned copy.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	pid := t.root
	for {
		fr, c, err := t.open(pid, key)
		if err != nil {
			return nil, false, err
		}
		if c.leaf {
			var v []byte
			if c.equal {
				v = append([]byte(nil), c.val(c.entry)...)
			}
			fr.Unpin()
			return v, c.equal, nil
		}
		pid = c.down
		fr.Unpin()
	}
}

// Copied wraps a visitor so it receives owned copies of each entry, for
// tests that retain keys or values past the callback (see the Visit
// zero-copy contract).
func Copied(fn Visit) Visit {
	return func(k, v []byte) bool {
		return fn(append([]byte(nil), k...), append([]byte(nil), v...))
	}
}

// CopiedIndexed is Copied for batch visitors.
func CopiedIndexed(fn VisitIndexed) VisitIndexed {
	return func(i int, k, v []byte) bool {
		return fn(i, append([]byte(nil), k...), append([]byte(nil), v...))
	}
}

// entryOverheadHdr returns the fixed per-entry header size preceding the
// suffix bytes (the child pointer of internal entries trails the suffix).
func entryOverheadHdr(leaf bool) int {
	if leaf {
		return 6
	}
	return 4
}
