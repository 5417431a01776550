package gom

import (
	"fmt"
	"strings"
)

// PathStep is one resolved attribute step A_i of a path expression
// t_0.A_1.….A_n (Definition 3.1). For a single-valued attribute the step
// leads directly from Domain (t_{i-1}) to Range (t_i). For a set-valued
// attribute — a "set occurrence at A_i" — the attribute leads from Domain
// to Set (the set type t'_i), whose elements have type Range.
type PathStep struct {
	Attr   string
	Domain *Type // t_{i-1}: domain type of A_i
	Set    *Type // t'_i when A_i is set-valued, else nil
	Range  *Type // t_i: range type of A_i
	slot   int   // A_i's position among Domain's attributes
}

// IsSetOccurrence reports whether this step traverses a set-valued
// attribute.
func (s PathStep) IsSetOccurrence() bool { return s.Set != nil }

// slotIn returns the position of the step's attribute among the
// attributes of t, an object's type: the one resolved with the path when
// t is Domain, else — a subtype, whose inherited attributes multiple
// inheritance may order differently — looked up by name; -1 when t has
// no such attribute.
func (s *PathStep) slotIn(t *Type) int {
	if t == s.Domain {
		return s.slot
	}
	return t.slot(s.Attr)
}

// PathExpression is a validated path expression t_0.A_1.….A_n
// (Definition 3.1). Len (= n) is the number of attribute steps;
// SetOccurrences (= k in Definition 3.2) counts steps through set-valued
// attributes; the underlying access support relation has arity n+k+1.
type PathExpression struct {
	root  *Type
	steps []PathStep
	str   string // dot notation, rendered once: every query names its paths
}

// ResolvePath validates attrs as a path expression anchored at root,
// checking each step against Definition 3.1: A_i must be an attribute of
// t_{i-1} (possibly inherited) whose type is either a tuple/atomic type
// (single-valued step) or a set type (set occurrence). Lists are handled
// like sets (§2.1). The final attribute may be atomic (as in
// Division.Manufactures.Composition.Name); intermediate attributes must
// lead to further objects.
func ResolvePath(root *Type, attrs ...string) (*PathExpression, error) {
	if root == nil {
		return nil, fmt.Errorf("gom: path: nil root type")
	}
	if root.Kind() != TupleType {
		return nil, fmt.Errorf("gom: path: root type %s is %s-structured, want tuple", root.Name(), root.Kind())
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("gom: path: at least one attribute required")
	}
	cur := root
	steps := make([]PathStep, 0, len(attrs))
	for i, name := range attrs {
		if cur.Kind() != TupleType {
			return nil, fmt.Errorf("gom: path %s: step %d (%s): domain %s is %s-structured, want tuple",
				pathString(root, attrs), i+1, name, cur.Name(), cur.Kind())
		}
		a, ok := cur.Attribute(name)
		if !ok {
			return nil, fmt.Errorf("gom: path %s: type %s has no attribute %q",
				pathString(root, attrs), cur.Name(), name)
		}
		step := PathStep{Attr: name, Domain: cur, slot: cur.slot(name)}
		switch a.Type.Kind() {
		case SetType, ListType:
			step.Set = a.Type
			step.Range = a.Type.Elem()
		default:
			step.Range = a.Type
		}
		if i < len(attrs)-1 && step.Range.Kind() == AtomicType {
			return nil, fmt.Errorf("gom: path %s: intermediate attribute %s.%s is atomic (%s)",
				pathString(root, attrs), cur.Name(), name, step.Range.Name())
		}
		steps = append(steps, step)
		cur = step.Range
	}
	return &PathExpression{root: root, steps: steps, str: pathString(root, attrs)}, nil
}

// ParsePath resolves a path written in dot notation, TYPE.Attr[.Attr...]
// (the inverse of PathExpression.String), against schema: the spelling
// index specs, shell commands and the ASR manifest all use.
func ParsePath(schema *Schema, s string) (*PathExpression, error) {
	parts := strings.Split(s, ".")
	if len(parts) < 2 {
		return nil, fmt.Errorf("gom: path %q must be TYPE.Attr[.Attr...]", s)
	}
	root, ok := schema.Lookup(parts[0])
	if !ok {
		return nil, fmt.Errorf("gom: path %q: unknown type %q", s, parts[0])
	}
	return ResolvePath(root, parts[1:]...)
}

// MustResolvePath is ResolvePath panicking on error.
func MustResolvePath(root *Type, attrs ...string) *PathExpression {
	p, err := ResolvePath(root, attrs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns n, the number of attribute steps.
func (p *PathExpression) Len() int { return len(p.steps) }

// Steps returns the resolved steps A_1 … A_n.
func (p *PathExpression) Steps() []PathStep { return append([]PathStep(nil), p.steps...) }

// Step returns step A_i for 1 ≤ i ≤ n.
func (p *PathExpression) Step(i int) PathStep { return p.steps[i-1] }

// IsLinear reports whether the path contains no set occurrence
// (Definition 3.1: a linear path).
func (p *PathExpression) IsLinear() bool { return p.SetOccurrences() == 0 }

// SetOccurrences returns k, the number of set occurrences in the path
// (Definition 3.2).
func (p *PathExpression) SetOccurrences() int {
	k := 0
	for _, s := range p.steps {
		if s.IsSetOccurrence() {
			k++
		}
	}
	return k
}

// Arity returns n+k+1, the column count of the access support relation
// over this path, including set-object identifier columns (Def. 3.2).
func (p *PathExpression) Arity() int { return p.Len() + p.SetOccurrences() + 1 }

// ColumnTypes returns the n+k+1 column types S_0 … S_{n+k}: t_0, then for
// every step the set type (if a set occurrence) followed by the range
// type (Definition 3.2).
func (p *PathExpression) ColumnTypes() []*Type {
	cols := []*Type{p.root}
	for _, s := range p.steps {
		if s.IsSetOccurrence() {
			cols = append(cols, s.Set)
		}
		cols = append(cols, s.Range)
	}
	return cols
}

// ObjectColumn maps step index i (0 ≤ i ≤ n, where 0 is the anchor) to
// the relation column holding OIDs of t_i objects — i + k(i) in the
// paper's notation, where k(i) counts set occurrences at A_j for j ≤ i.
// Set-object identifier columns sit between ObjectColumn(i-1) and
// ObjectColumn(i) for set occurrences at A_i.
func (p *PathExpression) ObjectColumn(i int) int {
	col := 0
	for j := 0; j < i; j++ {
		if p.steps[j].IsSetOccurrence() {
			col++
		}
		col++
	}
	return col
}

// StepOfColumn is the inverse of ObjectColumn: it returns (i, isSetCol)
// where column col holds OIDs of t_i objects, or — when isSetCol — set
// objects t'_i of the set occurrence at A_i.
func (p *PathExpression) StepOfColumn(col int) (int, bool) {
	c := 0
	if col == 0 {
		return 0, false
	}
	for i, s := range p.steps {
		if s.IsSetOccurrence() {
			c++
			if c == col {
				return i + 1, true
			}
		}
		c++
		if c == col {
			return i + 1, false
		}
	}
	panic(fmt.Sprintf("gom: StepOfColumn(%d): out of range for arity %d", col, p.Arity()))
}

// String renders the path in dot notation, t_0.A_1.….A_n.
func (p *PathExpression) String() string { return p.str }

func pathString(root *Type, attrs []string) string {
	return root.Name() + "." + strings.Join(attrs, ".")
}

// SharedSegment locates the longest common infix of two paths for access
// support relation sharing (§5.4): it returns the step ranges [i, i+j]
// of p and [i', i'+j] of q such that steps A_{i+1}..A_{i+j} of p and
// A_{i'+1}..A_{i'+j} of q traverse identical attributes with identical
// domain and range types. ok is false when no common segment of length
// ≥ 1 exists.
func SharedSegment(p, q *PathExpression) (pStart, qStart, length int, ok bool) {
	best := 0
	for i := 0; i <= p.Len(); i++ {
		for i2 := 0; i2 <= q.Len(); i2++ {
			l := 0
			for i+l < p.Len() && i2+l < q.Len() && sameStep(p.steps[i+l], q.steps[i2+l]) {
				l++
			}
			if l > best {
				best, pStart, qStart = l, i, i2
			}
		}
	}
	return pStart, qStart, best, best > 0
}

func sameStep(a, b PathStep) bool {
	return a.Attr == b.Attr && a.Domain == b.Domain && a.Range == b.Range && a.Set == b.Set
}
