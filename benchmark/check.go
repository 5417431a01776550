package main

import (
	"context"
	"fmt"
	"slices"

	"asr/internal/gom"
	"asr/internal/query"
)

// answer is a query's result as a wire client receives it: the values
// rendered with gom.ValueString in the engine's sorted order, plus the
// plan line.
type answer struct {
	values []string
	plan   string
}

func (a answer) equal(values []string, plan string) bool {
	return a.plan == plan && slices.Equal(a.values, values)
}

// runOracle evaluates sql in-process, bypassing the wire.
func runOracle(eng *query.Engine, sql string) (answer, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return answer{}, err
	}
	res, err := eng.RunCtx(context.Background(), q, 1)
	if err != nil {
		return answer{}, fmt.Errorf("oracle %q: %w", sql, err)
	}
	a := answer{plan: res.Plan, values: make([]string, len(res.Values))}
	for i, v := range res.Values {
		a.values[i] = gom.ValueString(v)
	}
	return a, nil
}

// oracleFor computes the expected wire answer (values and plan) of every
// distinct query of a read-only workload, and how many are non-empty.
func oracleFor(eng *query.Engine, qs *querySet) (want []answer, nonEmpty int, err error) {
	want = make([]answer, len(qs.ops))
	for i, op := range qs.ops {
		if want[i], err = runOracle(eng, op.sql); err != nil {
			return nil, 0, err
		}
		if len(want[i].values) > 0 {
			nonEmpty++
		}
	}
	return want, nonEmpty, nil
}

// verifyMaintained checks a base after its writer has quiesced: no index
// has drifted from the object base, no maintainer has failed, and
// sampled backward queries through the indexes equal the same queries on
// an index-less engine over the same base. It returns the number of
// sampled queries that disagreed.
func verifyMaintained(d *db, seed int64, samples int) (wrong int, err error) {
	for _, ix := range d.mgr.Indexes() {
		rep, err := ix.Verify()
		if err != nil {
			return 0, fmt.Errorf("verify %s: %w", ix, err)
		}
		if !rep.Clean() {
			return 0, fmt.Errorf("index %s drifted from the object base: %s", ix, rep)
		}
	}
	for _, st := range d.mgr.Stats().Indexes {
		if !st.MaintenanceOK {
			return 0, fmt.Errorf("index on %s: maintenance failed: %v", st.Path, d.mgr.Healthy())
		}
	}
	plain := query.New(d.ob, nil)
	rng := newRand(seed, saltVerify)
	for i := 0; i < samples; i++ {
		sql := indexedSQL(rng.Intn(len(d.levels[3])))
		got, err := runOracle(d.eng, sql)
		if err != nil {
			return wrong, err
		}
		want, err := runOracle(plain, sql)
		if err != nil {
			return wrong, err
		}
		if !slices.Equal(got.values, want.values) {
			wrong++
		}
	}
	return wrong, nil
}
