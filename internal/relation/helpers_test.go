package relation

import "asr/internal/gom"

// Helpers the package's tests use; no product code needs them.

// OIDs makes a tuple of references from OIDs; NilOID becomes NULL.
func OIDs(ids ...gom.OID) Tuple {
	t := make(Tuple, len(ids))
	for i, id := range ids {
		if !id.IsNil() {
			t[i] = gom.Ref(id)
		}
	}
	return t
}

// Equal reports column-wise equality (NULL equals NULL).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !gom.ValuesEqual(t[i], u[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether the relation holds the tuple.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.rows[t.Key()]
	return ok
}
