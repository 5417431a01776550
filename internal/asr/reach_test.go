package asr

import (
	"math/rand"
	"sort"
	"testing"

	"asr/internal/gendb"
	"asr/internal/gom"
	"asr/internal/relation"
)

// TestReachMatchesAuxiliaryRelationJoin checks the one Q_nas evaluator,
// gom.ObjectBase.Reach, against internal/relation on seeded bases that
// mix single- and set-valued steps with NULL attributes, dangling
// references (deleted objects still referenced from attributes and from
// sets) and emptied sets: for every span (i, j) and start set, the
// reached values are the last column of the natural join of the
// auxiliary relations E_i … E_{j-1} restricted to the start values
// (Def. 3.3 composed), and the fetch count is the number of live
// objects on the frontiers of steps i … j-1 — each distinct frontier
// object read once per step.
func TestReachMatchesAuxiliaryRelationJoin(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		db, err := gendb.Generate(gendb.Spec{
			N:    4,
			C:    []int{20, 25, 30, 30, 25},
			D:    []int{16, 20, 22, 24}, // the rest keep a NULL Next
			Fan:  []int{2, 1, 3, 1},     // set, single, set, single
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		// Dangling references: delete a few objects of every inner level.
		for lvl := 1; lvl <= 4; lvl++ {
			for k := 0; k < 3; k++ {
				id := db.Extents[lvl][rng.Intn(len(db.Extents[lvl]))]
				if _, live := db.Base.Get(id); live {
					if err := db.Base.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Empty sets: strip every element from a few set objects.
		for _, lvl := range []int{0, 2} {
			for _, id := range db.Extents[lvl][:4] {
				o, ok := db.Base.Get(id)
				if !ok {
					continue
				}
				setOID := o.AttrOID("Next")
				set, ok := db.Base.Get(setOID)
				if !ok {
					continue
				}
				for _, e := range set.Elements() {
					if err := db.Base.RemoveFromSet(setOID, e); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		aux, err := BuildAuxiliaryRelations(db.Base, db.Path)
		if err != nil {
			t.Fatal(err)
		}
		n := db.Path.Len()
		for i := 0; i < n; i++ {
			// Start from the whole (partly deleted) t_i extent and from a
			// few single objects.
			starts := [][]gom.Value{refsOf(db.Extents[i])}
			for k := 0; k < 3; k++ {
				starts = append(starts, refsOf(db.Extents[i][k*5:k*5+1]))
			}
			for _, start := range starts {
				for j := i + 1; j <= n; j++ {
					wantFetches := uint64(0)
					frontier := sortedKeys(start)
					for s := i; s < j; s++ {
						// frontier holds the distinct values at object step s.
						for _, k := range frontier {
							if ref, ok := k.v.(gom.Ref); ok {
								if _, live := db.Base.Get(ref.OID()); live {
									wantFetches++
								}
							}
						}
						frontier = joinFrom(t, aux[i:s+1], start)
					}
					got, fetches := db.Base.Reach(db.Path, i, j, start...)
					gotKeys := sortedKeys(got)
					if len(gotKeys) != len(got) {
						t.Fatalf("seed %d (%d,%d): Reach returned duplicates: %v", seed, i, j, got)
					}
					if !sameKeys(gotKeys, frontier) {
						t.Fatalf("seed %d (%d,%d) from %d start values:\nReach %v\njoin  %v",
							seed, i, j, len(start), gotKeys, frontier)
					}
					if fetches != wantFetches {
						t.Fatalf("seed %d (%d,%d) from %d start values: %d fetches, want %d",
							seed, i, j, len(start), fetches, wantFetches)
					}
				}
			}
		}
	}
}

type keyed struct {
	key string
	v   gom.Value
}

// sortedKeys de-duplicates values by their rendering and sorts them.
func sortedKeys(vals []gom.Value) []keyed {
	seen := map[string]bool{}
	var out []keyed
	for _, v := range vals {
		if k := gom.ValueString(v); !seen[k] {
			seen[k] = true
			out = append(out, keyed{k, v})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key < out[b].key })
	return out
}

func sameKeys(a, b []keyed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key {
			return false
		}
	}
	return true
}

// joinFrom is the reference: the distinct non-NULL last-column values of
// the natural join of rels, over the rows whose first column is one of
// the start values.
func joinFrom(t *testing.T, rels []*relation.Relation, start []gom.Value) []keyed {
	t.Helper()
	joined, err := relation.JoinChain(relation.NaturalJoin, "Q", true, rels...)
	if err != nil {
		t.Fatal(err)
	}
	from := map[string]bool{}
	for _, v := range start {
		from[gom.ValueString(v)] = true
	}
	var last []gom.Value
	joined.Each(func(row relation.Tuple) bool {
		if end := row[len(row)-1]; end != nil && from[gom.ValueString(row[0])] {
			last = append(last, end)
		}
		return true
	})
	return sortedKeys(last)
}
