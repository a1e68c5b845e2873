// Package cleaner implements the Dataset Enumerator's first duty: given
// the user's hand-selected example tuples D', identify a *self-consistent
// subset* by discarding stragglers the user probably swept up by
// accident. The paper says: "We are currently experimenting with
// clustering (e.g., K-means) and classification based techniques that
// train classifiers on D' and remove elements that are not consistent
// with the classifier." The classifier is the one kept: on the quality
// table (internal/core, TestQualityTable) it leaves a clean D' whole
// where k-means threw a third of it away, and still separates a D' that
// is half mis-clicks.
package cleaner

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/feature"
)

// NaiveBayes is a two-class naive Bayes classifier over a gathered
// feature.Frame: Gaussian likelihoods for numeric attributes,
// Laplace-smoothed frequency tables for categorical attributes.
type NaiveBayes struct {
	fr    *feature.Frame
	prior [2]float64 // log priors
	// numMean/numStd[attr][class] parameterize the numeric likelihoods.
	numMean, numStd [][2]float64
	// catLog[attr][class][code] = log P(value | class); values a class
	// never saw hold a small default log-probability.
	catLog [][2][]float64
}

// TrainNaiveBayes fits the classifier on the frame positions class marks
// 1 (positive) or 0 (negative); any other mark leaves the position out.
// Both classes must be non-empty.
func TrainNaiveBayes(fr *feature.Frame, class []int8) *NaiveBayes {
	sp := fr.Space
	nb := &NaiveBayes{
		fr:      fr,
		numMean: make([][2]float64, len(sp.Attrs)),
		numStd:  make([][2]float64, len(sp.Attrs)),
		catLog:  make([][2][]float64, len(sp.Attrs)),
	}
	var n [2]int
	for _, c := range class {
		if c == 0 || c == 1 {
			n[c]++
		}
	}
	for cls := range n {
		nb.prior[cls] = math.Log(float64(n[cls]) / float64(n[0]+n[1]))
	}

	for ai := range sp.Attrs {
		if floats := fr.Floats[ai]; floats != nil {
			var sum, sumsq [2]float64
			var cnt [2]int
			for i, f := range floats {
				if c := class[i]; (c == 0 || c == 1) && !math.IsNaN(f) {
					sum[c] += f
					sumsq[c] += f * f
					cnt[c]++
				}
			}
			for cls := range cnt {
				if cnt[cls] == 0 {
					nb.numMean[ai][cls], nb.numStd[ai][cls] = 0, 1
					continue
				}
				m := sum[cls] / float64(cnt[cls])
				variance := sumsq[cls]/float64(cnt[cls]) - m*m
				if variance < 1e-9 {
					variance = 1e-9
				}
				nb.numMean[ai][cls], nb.numStd[ai][cls] = m, math.Sqrt(variance)
			}
			continue
		}
		codes := fr.Codes[ai]
		ncodes := 0
		for _, c := range codes {
			ncodes = max(ncodes, int(c)+1)
		}
		var counts [2][]int
		var cnt [2]int
		counts[0], counts[1] = make([]int, ncodes), make([]int, ncodes)
		for i, code := range codes {
			if c := class[i]; (c == 0 || c == 1) && code >= 0 {
				counts[c][code]++
				cnt[c]++
			}
		}
		// Laplace smoothing over the attribute's known values.
		vocab := len(sp.Attrs[ai].Values) + 1
		for cls := range counts {
			table := make([]float64, ncodes)
			for code, k := range counts[cls] {
				table[code] = unseenLogProb
				if k > 0 {
					table[code] = math.Log(float64(k+1) / float64(cnt[cls]+vocab))
				}
			}
			nb.catLog[ai][cls] = table
		}
	}
	return nb
}

// unseenLogProb is the log-probability of a categorical value the class
// never showed.
var unseenLogProb = math.Log(1e-3)

// LogOdds returns log P(pos|row) − log P(neg|row) up to a constant, for
// the row at frame position i.
func (nb *NaiveBayes) LogOdds(i int) float64 {
	ll := nb.prior
	for ai := range nb.catLog {
		if floats := nb.fr.Floats[ai]; floats != nil {
			f := floats[i]
			if math.IsNaN(f) {
				continue
			}
			mean, std := nb.numMean[ai], nb.numStd[ai]
			for cls := 0; cls < 2; cls++ {
				z := (f - mean[cls]) / std[cls]
				ll[cls] += -0.5*z*z - math.Log(std[cls])
			}
		} else if c := nb.fr.Codes[ai][i]; c >= 0 {
			for cls := 0; cls < 2; cls++ {
				ll[cls] += nb.catLog[ai][cls][c]
			}
		}
	}
	return ll[1] - ll[0]
}

// Predict reports whether the row at frame position i is classified
// positive.
func (nb *NaiveBayes) Predict(i int) bool { return nb.LogOdds(i) > 0 }

const (
	// minExamples is the smallest D' worth second-guessing.
	minExamples = 4
	// minKeepFrac refuses to discard more than half of D': the user's
	// selection is evidence, not noise.
	minKeepFrac = 0.5
)

// Clean returns the self-consistent subset of dprime (source row ids, in
// order): a naive Bayes classifier is trained on the learning frame — the
// D' rows it holds against the rest of the lineage it holds — and the D'
// rows the model itself rejects are dropped. The frame is the one the
// learners train on, gathered once; a D' row it does not hold (the
// learning population is capped) is kept unjudged. D' comes back whole
// when it is tiny, when the frame holds no contrast, or when the model
// would discard more than minKeepFrac allows.
func Clean(fr *feature.Frame, dprime []int, lineage *bitset.Bitset) []int {
	whole := append([]int(nil), dprime...)
	if len(dprime) < minExamples {
		return whole
	}
	examples := bitset.FromRows(lineage.Len(), dprime)
	class := make([]int8, len(fr.Rows))
	var n [2]int
	for i, r := range fr.Rows {
		switch {
		case examples.Get(r):
			class[i] = 1
		case !lineage.Get(r):
			class[i] = -1
			continue
		}
		n[class[i]]++
	}
	if n[0] == 0 || n[1] == 0 {
		return whole
	}
	nb := TrainNaiveBayes(fr, class)
	rejected := bitset.New(lineage.Len())
	for i, r := range fr.Rows {
		if class[i] == 1 && !nb.Predict(i) {
			rejected.Set(r)
		}
	}
	kept := make([]int, 0, len(dprime))
	for _, r := range dprime {
		if !rejected.Get(r) {
			kept = append(kept, r)
		}
	}
	if float64(len(kept)) < minKeepFrac*float64(len(dprime)) {
		return whole
	}
	return kept
}
