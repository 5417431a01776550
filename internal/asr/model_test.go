package asr

import (
	"reflect"
	"testing"

	"asr/internal/costmodel"
	"asr/internal/gom"
	"asr/internal/paperdb"
)

// chainBase builds A.S.R.Name over
//
//	a1.S = {b1, b2}   a2.S = {b2, b3}   a3.S = NULL
//	b1.R = c1 "x"     b2.R = c2 "x"     b3.R = c3 "y"
//
// and returns the base, the path and the b and c objects.
func chainBase(t *testing.T) (*gom.ObjectBase, *gom.PathExpression, []gom.OID, []gom.OID) {
	t.Helper()
	schema, _ := gom.MustParseSchema(`
type A is [S: BSET];
type BSET is {B};
type B is [R: C];
type C is [Name: STRING];
`)
	ob := gom.NewObjectBase(schema)
	var cs, bs []gom.OID
	for _, name := range []string{"x", "x", "y"} {
		c := ob.MustNew(schema.MustLookup("C"))
		ob.MustSetAttr(c.ID(), "Name", gom.String(name))
		b := ob.MustNew(schema.MustLookup("B"))
		ob.MustSetAttr(b.ID(), "R", gom.Ref(c.ID()))
		cs, bs = append(cs, c.ID()), append(bs, b.ID())
	}
	for _, elems := range [][]gom.OID{{bs[0], bs[1]}, {bs[1], bs[2]}, nil} {
		a := ob.MustNew(schema.MustLookup("A"))
		if elems == nil {
			continue
		}
		set := ob.MustNew(schema.MustLookup("BSET"))
		for _, e := range elems {
			ob.MustInsertIntoSet(set.ID(), gom.Ref(e))
		}
		ob.MustSetAttr(a.ID(), "S", gom.Ref(set.ID()))
	}
	return ob, gom.MustResolvePath(schema.MustLookup("A"), "S", "R", "Name"), bs, cs
}

// TestProfile pins the one profile derivation on the cases where the
// two it replaced disagreed: the atomic last level (c_n is the number
// of distinct values, not the domain extent) and dangling references
// (followed the way the index follows them: nowhere).
func TestProfile(t *testing.T) {
	company := paperdb.BuildCompany()
	cases := []struct {
		name string
		base func() (*gom.ObjectBase, *gom.PathExpression)
		want costmodel.Profile
	}{
		{
			// Levels: Division(3), Product(3), BasePart(2), Name values.
			// d_0: Auto and Truck have Manufactures with non-empty sets;
			// d_1: 560SEC and Sausage have Compositions (MBTrak NULL);
			// d_2: both parts have names. fan_0 and shar_0: Auto→{560SEC},
			// Truck→{560SEC, MBTrak}, 3 references from 2 divisions to 2
			// distinct products.
			name: "company",
			base: func() (*gom.ObjectBase, *gom.PathExpression) { return company.Base, company.Path },
			want: costmodel.Profile{
				N: 3, C: []float64{3, 3, 2, 2}, D: []float64{2, 2, 2},
				Fan: []float64{1.5, 1, 1}, Shar: []float64{1.5, 1, 1},
				Size: []float64{76, 72, 72, 72},
			},
		},
		{
			name: "atomic last level with repeated values",
			base: func() (*gom.ObjectBase, *gom.PathExpression) {
				ob, path, _, _ := chainBase(t)
				return ob, path
			},
			want: costmodel.Profile{
				N: 3, C: []float64{3, 3, 3, 2}, D: []float64{2, 3, 3},
				Fan: []float64{2, 1, 1}, Shar: []float64{4.0 / 3, 1, 1.5},
				Size: []float64{80, 72, 72, 72},
			},
		},
		{
			// b3 deleted: a2's set keeps a dangling element. c1 deleted:
			// b1.R dangles, so only b2 has a defined R.
			name: "dangling reference and dangling set element",
			base: func() (*gom.ObjectBase, *gom.PathExpression) {
				ob, path, bs, cs := chainBase(t)
				for _, id := range []gom.OID{bs[2], cs[0]} {
					if err := ob.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				return ob, path
			},
			want: costmodel.Profile{
				N: 3, C: []float64{3, 2, 2, 2}, D: []float64{2, 1, 2},
				Fan: []float64{1.5, 1, 1}, Shar: []float64{1.5, 1, 1},
				Size: []float64{76, 72, 72, 72},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ob, path := tc.base()
			got, err := Profile(ob, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("profile of %s:\n got %+v\nwant %+v", path, got, tc.want)
			}
			// The measured profile must feed the model without error.
			if _, err := costmodel.New(costmodel.DefaultSystem(), got); err != nil {
				t.Error(err)
			}
		})
	}

	// Explicit sizes are honored; wrong lengths and empty levels rejected.
	p, err := Profile(company.Base, company.Path, []float64{100, 100, 100, 100})
	if err != nil || !reflect.DeepEqual(p.Size, []float64{100, 100, 100, 100}) {
		t.Errorf("explicit sizes: %v %v", p.Size, err)
	}
	if _, err := Profile(company.Base, company.Path, []float64{100}); err == nil {
		t.Error("short sizes accepted")
	}
	ob, path, bs, _ := chainBase(t)
	for _, id := range bs {
		if err := ob.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Profile(ob, path, nil); err == nil {
		t.Error("empty extent accepted")
	}
}

// TestStepsColumnsRoundTrip: on the company path (two set occurrences,
// six columns) a column decomposition whose boundaries all sit on
// object columns survives the trip through step space, every other one
// still maps to a valid step decomposition, and every step
// decomposition survives the trip through column space.
func TestStepsColumnsRoundTrip(t *testing.T) {
	path := paperdb.BuildCompany().Path
	n, m := path.Len(), path.Arity()-1
	onObjects := 0
	for _, dec := range EnumerateDecompositions(m) {
		steps := StepsOf(path, dec)
		if err := Decomposition(steps).Validate(n); err != nil {
			t.Errorf("StepsOf(%v) = %v: %v", dec, steps, err)
		}
		onObjectColumns := true
		for _, col := range dec {
			if _, isSet := path.StepOfColumn(col); isSet {
				onObjectColumns = false
			}
		}
		if !onObjectColumns {
			continue
		}
		onObjects++
		if back := ColumnsOf(path, steps); !reflect.DeepEqual(back, dec) {
			t.Errorf("ColumnsOf(StepsOf(%v)) = %v", dec, back)
		}
	}
	if onObjects != 1<<(n-1) {
		t.Errorf("%d decompositions on object columns, want %d", onObjects, 1<<(n-1))
	}
	for _, steps := range costmodel.EnumerateDecompositions(n) {
		cols := ColumnsOf(path, steps)
		if err := cols.Validate(m); err != nil {
			t.Errorf("ColumnsOf(%v) = %v: %v", steps, cols, err)
		}
		if back := StepsOf(path, cols); !reflect.DeepEqual(back, steps) {
			t.Errorf("StepsOf(ColumnsOf(%v)) = %v", steps, back)
		}
	}
}
