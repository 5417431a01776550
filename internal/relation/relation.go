// Package relation provides the small relational-algebra substrate that
// access support relations are defined with (Kemper & Moerkotte, §3):
// relations of OID/value tuples admitting NULLs, the natural join and the
// full/left/right outer joins on the last column of the first operand and
// the first column of the second (the paper's ⨝, ⟗, ⟕, ⟖), projection,
// and set-semantics deduplication.
package relation

import (
	"fmt"
	"sort"
	"strings"

	"asr/internal/gom"
)

// Tuple is one row: a slice of possibly-NULL values. OID columns carry
// gom.Ref values, value columns carry atomic gom values, and NULL is nil.
type Tuple []gom.Value

// Key returns a canonical string key for set semantics and sorting.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends the canonical key to dst and returns the extended
// slice — the scratch-buffer form for hot paths (joins, set inserts)
// that key maps via the compiler's map[string(…)] fast path instead of
// materializing one string per row. Byte-identical to Key.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\x00')
		}
		dst = gom.AppendValueString(dst, v)
	}
	return dst
}

// IsAllNull reports whether every column is NULL.
func (t Tuple) IsAllNull() bool {
	for _, v := range t {
		if v != nil {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the row in the paper's table style.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = gom.ValueString(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a named relation with set semantics over its tuples.
type Relation struct {
	name    string
	columns []string
	rows    map[string]Tuple
}

// New creates an empty relation with the given column names.
func New(name string, columns ...string) *Relation {
	return &Relation{name: name, columns: append([]string(nil), columns...), rows: map[string]Tuple{}}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Columns returns the column names.
func (r *Relation) Columns() []string { return append([]string(nil), r.columns...) }

// Arity returns the column count.
func (r *Relation) Arity() int { return len(r.columns) }

// Cardinality returns the tuple count.
func (r *Relation) Cardinality() int { return len(r.rows) }

// Insert adds a tuple (set semantics: duplicates are absorbed). The
// tuple's arity must match the relation's.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.columns) {
		return fmt.Errorf("relation %s: tuple arity %d, want %d", r.name, len(t), len(r.columns))
	}
	r.rows[t.Key()] = t.Clone()
	return nil
}

// MustInsert is Insert panicking on error.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Tuples returns all rows sorted by canonical key (deterministic).
func (r *Relation) Tuples() []Tuple {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.rows[k]
	}
	return out
}

// Each calls fn for every tuple in deterministic order; fn returning
// false stops the iteration.
func (r *Relation) Each(fn func(Tuple) bool) {
	for _, t := range r.Tuples() {
		if !fn(t) {
			return
		}
	}
}

// Clone returns a deep copy with the given name.
func (r *Relation) Clone(name string) *Relation {
	out := New(name, r.columns...)
	for _, t := range r.rows {
		out.rows[t.Key()] = t.Clone()
	}
	return out
}

// Equal reports whether two relations hold exactly the same tuple sets
// (column names are ignored).
func (r *Relation) Equal(s *Relation) bool {
	if len(r.rows) != len(s.rows) {
		return false
	}
	for k := range r.rows {
		if _, ok := s.rows[k]; !ok {
			return false
		}
	}
	return true
}

// Project returns the projection onto columns lo..hi inclusive,
// deduplicated; rows that are entirely NULL after projection are dropped
// (they carry no path information, §3 Definition 3.8).
func (r *Relation) Project(name string, lo, hi int) (*Relation, error) {
	if lo < 0 || hi >= len(r.columns) || lo > hi {
		return nil, fmt.Errorf("relation %s: Project[%d..%d] out of range (arity %d)", r.name, lo, hi, len(r.columns))
	}
	out := New(name, r.columns[lo:hi+1]...)
	for _, t := range r.rows {
		p := t[lo : hi+1].Clone()
		if p.IsAllNull() {
			continue
		}
		out.rows[p.Key()] = p
	}
	return out, nil
}

// String renders the relation as an aligned table in the paper's style.
func (r *Relation) String() string {
	rows := r.Tuples()
	width := make([]int, len(r.columns))
	cells := make([][]string, len(rows))
	for i, c := range r.columns {
		width[i] = len(c)
	}
	for ri, t := range rows {
		cells[ri] = make([]string, len(t))
		for ci, v := range t {
			s := gom.ValueString(v)
			cells[ri][ci] = s
			if len(s) > width[ci] {
				width[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d tuples)\n", r.name, len(rows))
	// Every column but the last is padded to its width, so no line ends
	// in spaces.
	line := func(row []string) {
		for i, s := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			if i < len(row)-1 {
				fmt.Fprintf(&b, "%-*s", width[i], s)
			} else {
				b.WriteString(s)
			}
		}
		b.WriteString("\n")
	}
	line(r.columns)
	for _, row := range cells {
		line(row)
	}
	return b.String()
}
