package core

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/pca"
)

// PCAGroups projects each output group of a multi-attribute result onto
// its two largest principal components — the visualization the paper
// proposes for queries whose group-by has more than two attributes.
// All numeric result columns participate (standardized so no column
// dominates by unit; a NULL, NaN or ±Inf cell sits at its column's mean);
// the second return value reports the variance explained by the two.
func PCAGroups(res *exec.Result) ([][2]float64, [2]float64, error) {
	var explained [2]float64
	schema := res.Table.Schema()
	var cols []int
	for c := range schema {
		if schema[c].Type.IsNumeric() {
			cols = append(cols, c)
		}
	}
	if len(cols) < 2 {
		return nil, explained, fmt.Errorf("core: PCA needs at least two numeric result columns, have %d", len(cols))
	}
	n := res.Table.NumRows()
	if n < 3 {
		return nil, explained, fmt.Errorf("core: PCA needs at least three groups, have %d", n)
	}

	// Standardize each column so scale differences (epoch seconds vs
	// temperatures) do not swamp the projection.
	means := make([]float64, len(cols))
	stds := make([]float64, len(cols))
	for i, c := range cols {
		var sum, sumsq float64
		var cnt int
		for r := 0; r < n; r++ {
			v := res.Table.Value(r, c)
			if v.IsNull() {
				continue
			}
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			sum += f
			sumsq += f * f
			cnt++
		}
		if cnt == 0 {
			continue
		}
		means[i] = sum / float64(cnt)
		variance := sumsq/float64(cnt) - means[i]*means[i]
		if variance < 0 {
			variance = 0
		}
		stds[i] = math.Sqrt(variance)
		if stds[i] == 0 {
			stds[i] = 1
		}
	}

	points := make([][]float64, n)
	for r := 0; r < n; r++ {
		p := make([]float64, len(cols))
		for i, c := range cols {
			v := res.Table.Value(r, c)
			if v.IsNull() {
				p[i] = 0
				continue
			}
			f := v.Float()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				p[i] = 0
				continue
			}
			p[i] = (f - means[i]) / stds[i]
		}
		points[r] = p
	}
	proj, fit, err := pca.Project2D(points)
	if err != nil {
		return nil, explained, err
	}
	explained[0] = fit.ExplainedRatio(0)
	if len(fit.Components) > 1 {
		explained[1] = fit.ExplainedRatio(1)
	}
	return proj, explained, nil
}
