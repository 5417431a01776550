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
