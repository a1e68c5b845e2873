package testgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/predicate"
)

// PlantedConfig describes a table with a known cause of error: the
// quality table's (internal/core) way to vary what makes explanation
// hard — how selective the cause is, how many clauses it takes to say,
// whether another column merely correlates with it — with per-row truth
// labels to score against.
type PlantedConfig struct {
	// Causes are conjunctions over the descriptive columns (a, b, k, c,
	// d, n): a row of a faulty group is anomalous when any of them
	// holds. The columns are uniform — a and b on [0, 100) in steps of
	// 0.01, k on 0..49, c on 'c0'..'c7', d on 'd0'..'d3' — so a clause's
	// threshold is its selectivity.
	Causes []predicate.Predicate
	// Shift is what an anomalous row reads in the measure v (default
	// 100); a clean row reads 10 ± 2.
	Shift float64
	// Distractor makes column z a noisy copy of "a cause holds", in every
	// group: z >= 50 on that share of the caused rows and on as many other
	// rows as that leaves out, so it describes the anomaly with precision
	// and recall Distractor where the cause has 1. 0 leaves z uniform
	// noise.
	Distractor float64
}

// A planted table is plantedRows rows over plantedGroups GROUP BY keys,
// generated from one seed; the fault is active in the upper half of the
// groups only, as a sensor fault is active in some windows. Column n is
// NULL on plantedNullFrac of the rows and uniform on [0, 100) otherwise.
const (
	plantedRows     = 20_000
	plantedGroups   = 20
	plantedSeed     = 1
	plantedNullFrac = 0.6
)

// PlantedSQL is the aggregate the planted scenarios debug.
const PlantedSQL = "SELECT g, avg(v) AS m FROM planted GROUP BY g ORDER BY g"

// plantedSchema is the generated table's layout.
func plantedSchema() engine.Schema {
	return engine.NewSchema(
		"g", engine.TInt, "v", engine.TFloat,
		"a", engine.TFloat, "b", engine.TFloat, "k", engine.TInt,
		"c", engine.TString, "d", engine.TString,
		"n", engine.TFloat, "z", engine.TFloat)
}

// Planted generates the table "planted" and its truth labels (one per
// row: the row is anomalous).
func Planted(cfg PlantedConfig) (*engine.Table, []bool) {
	if cfg.Shift == 0 {
		cfg.Shift = 100
	}
	rng := rand.New(rand.NewSource(plantedSeed))
	schema := plantedSchema()
	centi := func() engine.Value { return engine.NewFloat(float64(rng.Intn(10_000)) / 100) }

	rows := make([][]engine.Value, plantedRows)
	caused := make([]bool, plantedRows)
	ncaused := 0
	for i := range rows {
		row := []engine.Value{
			engine.NewInt(int64(rng.Intn(plantedGroups))), engine.Null,
			centi(), centi(), engine.NewInt(int64(rng.Intn(50))),
			engine.NewString(fmt.Sprintf("c%d", rng.Intn(8))), engine.NewString(fmt.Sprintf("d%d", rng.Intn(4))),
			engine.Null, engine.Null,
		}
		if rng.Float64() >= plantedNullFrac {
			row[7] = centi()
		}
		for _, cause := range cfg.Causes {
			holds := true
			for _, cl := range cause.Clauses {
				holds = holds && cl.Matches(row[schema.ColIndex(cl.Col)])
			}
			caused[i] = caused[i] || holds
		}
		if caused[i] {
			ncaused++
		}
		rows[i] = row
	}
	// z reads high on a Distractor share of the caused rows and on as many
	// other rows as that leaves out, so "z >= 50" has precision and recall
	// Distractor against the cause.
	falseHigh := (1 - cfg.Distractor) * float64(ncaused) / float64(max(plantedRows-ncaused, 1))
	labels := make([]bool, plantedRows)
	for i, row := range rows {
		z := rng.Float64() * 100
		if cfg.Distractor > 0 {
			z /= 2
			if p := rng.Float64(); (caused[i] && p < cfg.Distractor) || (!caused[i] && p < falseHigh) {
				z += 50
			}
		}
		row[8] = engine.NewFloat(math.Round(z*100) / 100)
		labels[i] = caused[i] && row[0].Int() >= int64(plantedGroups/2)
		if labels[i] {
			row[1] = engine.NewFloat(cfg.Shift + rng.NormFloat64()*5)
		} else {
			row[1] = engine.NewFloat(10 + rng.NormFloat64()*2)
		}
	}
	t, err := engine.MustNewTable("planted", schema).AppendBatch(rows)
	if err != nil {
		panic(err)
	}
	return t, labels
}
