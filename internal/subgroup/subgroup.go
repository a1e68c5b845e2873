// Package subgroup implements CN2-SD-style subgroup discovery (Lavrač,
// Kavšek, Flach, Todorovski, JMLR 2004 — the paper's reference [4]): a
// greedy search over conjunctive selectors that finds compact descriptions
// of example subgroups with unusually high positive-class density, using
// weighted relative accuracy (WRAcc) as the quality measure and weighted
// covering so successive rules describe different parts of the positive
// class.
//
// In DBWipes this is the second half of the Dataset Enumerator: positives
// are the cleaned D' (optionally widened with high-influence tuples), the
// population is F (the suspect groups' lineage), and each discovered
// rule's covered set becomes one candidate dataset Dᶜᵢ.
//
// The search runs over positions of the space's learning frame
// (feature.Frame): selector match masks are built from its gathered
// columns, and only Rule.Covered translates back to table row ids.
package subgroup

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/predicate"
)

// Selector is one atomic condition usable in a rule.
type Selector struct {
	AttrIdx int // index into the Space's Attrs
	Op      predicate.Op
	Val     engine.Value
	// slot is Val's index in a categorical attribute's Values — what the
	// learning frame's Bins hold.
	slot int16
}

// Rule is a conjunction of selectors with its quality statistics.
type Rule struct {
	Selectors []Selector
	// WRAcc is the weighted relative accuracy at discovery time (with
	// example weights from the covering loop).
	WRAcc float64
	// Covered lists the population rows matching the rule.
	Covered []int
	// Pos counts covered positives (unweighted).
	Pos int
	// Precision is Pos / |Covered|.
	Precision float64
	// Recall is Pos / total positives.
	Recall float64
}

// Predicate converts the rule to a predicate over the space's table.
func (r *Rule) Predicate(sp *feature.Space) predicate.Predicate {
	var p predicate.Predicate
	for _, s := range r.Selectors {
		p = p.And(predicate.Clause{Col: sp.Attrs[s.AttrIdx].Name, Op: s.Op, Val: s.Val})
	}
	simplified, ok := p.Simplify()
	if !ok {
		return p
	}
	return simplified
}

// The search's fixed parameters. None is an option: nothing outside
// tests ever set one, and the quality table (internal/core,
// TestQualityTable) scores the pipeline as configured here.
const (
	// maxSelectors caps rule length: explanations must stay readable.
	maxSelectors = 3
	// maxRules caps how many rules the covering loop emits.
	maxRules = 8
	// minCoverage discards rules covering fewer population rows.
	minCoverage = 5
)

// Discover runs CN2-SD over the space's learning frame with the given
// positive labels (parallel to sp.Frame.Rows). It returns rules sorted
// by discovery order (best first by the covering loop's construction).
// A rule must beat random (WRAcc > 0), and a positive example covered k
// times weighs 1/(1+k) — the classic additive weighted covering.
func Discover(sp *feature.Space, positive []bool) []Rule {
	rows := sp.Frame.Rows
	n := len(rows)
	if n == 0 || len(positive) != n {
		return nil
	}
	totalPos := 0
	for _, p := range positive {
		if p {
			totalPos++
		}
	}
	if totalPos == 0 || totalPos == n {
		return nil
	}

	selectors := Selectors(sp)
	if len(selectors) == 0 {
		return nil
	}
	matches := selectorMasks(sp, selectors)

	weights := make([]float64, n)
	coverCount := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}

	var out []Rule
	for len(out) < maxRules {
		best, ok := search(selectors, matches, positive, weights, n)
		if !ok || best.wracc <= 0 {
			break
		}
		rule := Rule{
			Selectors: append([]Selector(nil), best.sels...),
			WRAcc:     best.wracc,
		}
		best.cover.ForEach(func(i int) {
			rule.Covered = append(rule.Covered, rows[i])
			if positive[i] {
				rule.Pos++
			}
		})
		if len(rule.Covered) == 0 {
			break
		}
		rule.Precision = float64(rule.Pos) / float64(len(rule.Covered))
		rule.Recall = float64(rule.Pos) / float64(totalPos)
		out = append(out, rule)

		// Weighted covering: decay covered positives' weights.
		newlyCovered := false
		best.cover.ForEach(func(i int) {
			if positive[i] {
				if coverCount[i] == 0 {
					newlyCovered = true
				}
				coverCount[i]++
				weights[i] = 1 / (1 + float64(coverCount[i]))
			}
		})
		if !newlyCovered {
			break // no progress: every positive the rule covers was already covered
		}
	}
	return out
}

// candidate is a partial rule. Coverage is kept as a bitset over
// population positions so a refinement is a word-level AND with the
// selector's match mask instead of a scan of the parent's coverage.
type candidate struct {
	sels  []Selector
	cover *bitset.Bitset // covered population positions
	n     int            // cover.Count()
	wracc float64
}

// search grows one rule greedily: at each depth the best refinement of
// the current rule (ties: first in vocabulary order) becomes the rule to
// refine next, and the best rule seen at any depth (ties: the shorter)
// is returned. Keeping the best eight per depth instead of the best one
// changed no cell of the quality table (internal/core; CHANGES.md, PR 26).
func search(selectors []Selector, matches []*bitset.Bitset, positive []bool, weights []float64, n int) (candidate, bool) {
	var totalW, posW float64
	uniform := true
	for i := 0; i < n; i++ {
		totalW += weights[i]
		if weights[i] != 1 {
			uniform = false
		}
		if positive[i] {
			posW += weights[i]
		}
	}
	if totalW == 0 {
		return candidate{}, false
	}
	baseRate := posW / totalW

	posBits := bitset.New(n)
	for i, p := range positive {
		if p {
			posBits.Set(i)
		}
	}

	// Root: full coverage.
	cur := candidate{cover: bitset.New(n), n: n}
	cur.cover.Fill()
	// used guards against stacking contradictory selectors; numeric attrs
	// may contribute one <= and one >=. attrIdx -> bitmask 1:eq/le, 2:ge.
	used := map[int]int{}
	var best candidate
	bestOK := false

	scratch := bitset.New(n)
	for depth := 0; depth < maxSelectors; depth++ {
		var next candidate
		nextSel := -1
		for si, sel := range selectors {
			if used[sel.AttrIdx]&opMask(sel.Op) != 0 {
				continue
			}
			scratch.IntersectOf(cur.cover, matches[si])
			covN := scratch.Count()
			if covN < minCoverage || covN == cur.n {
				continue
			}
			var covW, covPosW float64
			if uniform {
				// All weights are exactly 1 (always true before the
				// first covering pass): the weighted sums are plain
				// cardinalities, computed by popcount alone.
				covW = float64(covN)
				covPosW = float64(bitset.AndCount(scratch, posBits))
			} else {
				scratch.ForEach(func(i int) {
					covW += weights[i]
					if positive[i] {
						covPosW += weights[i]
					}
				})
			}
			if covW == 0 {
				continue
			}
			wracc := (covW / totalW) * (covPosW/covW - baseRate)
			if nextSel >= 0 && wracc <= next.wracc {
				continue
			}
			// The refinement it displaces lends its bitset as the next scratch.
			spare := next.cover
			next, nextSel = candidate{cover: scratch, n: covN, wracc: wracc}, si
			if scratch = spare; scratch == nil {
				scratch = bitset.New(n)
			}
		}
		if nextSel < 0 {
			break
		}
		sel := selectors[nextSel]
		next.sels = append(append([]Selector(nil), cur.sels...), sel)
		used[sel.AttrIdx] |= opMask(sel.Op)
		if !bestOK || next.wracc > best.wracc {
			best, bestOK = next, true
		}
		cur = next
	}
	return best, bestOK
}

// opMask is a selector's side of its attribute in search's used map.
func opMask(op predicate.Op) int {
	if op == predicate.OpGe {
		return 2
	}
	return 1
}

// Selectors enumerates the selector vocabulary of a space: one equality
// selector per frequent categorical value and a <= / >= pair per numeric
// quantile threshold. Exposed so the exhaustive baseline searches the
// same vocabulary CN2-SD does. The space must have been discretized: a
// profile-only one has no numeric vocabulary yet, and searching the rest
// would be a silently different answer, so it panics.
func Selectors(sp *feature.Space) []Selector {
	if sp.Frame.Bins == nil {
		panic("subgroup: the feature space has no thresholds or bins (feature.Space.Discretize was not run)")
	}
	var selectors []Selector
	for ai := range sp.Attrs {
		attr := &sp.Attrs[ai]
		switch attr.Kind {
		case feature.Categorical:
			for vi, v := range attr.Values {
				selectors = append(selectors, Selector{AttrIdx: ai, Op: predicate.OpEq, Val: v, slot: int16(vi)})
			}
		case feature.Numeric:
			for _, t := range attr.Thresholds {
				tv := numericThresholdValue(attr, t)
				selectors = append(selectors,
					Selector{AttrIdx: ai, Op: predicate.OpLe, Val: tv},
					Selector{AttrIdx: ai, Op: predicate.OpGe, Val: tv},
				)
			}
		}
	}
	return selectors
}

// selectorMasks builds one match bitset per selector over the learning
// frame's positions, a word at a time from the gathered columns: float
// comparison against the selector's value (NaN and NULL compare false)
// for numeric selectors, slot equality for categorical ones. The
// bitsets are what lets search refine coverage with word-level ANDs.
func selectorMasks(sp *feature.Space, selectors []Selector) []*bitset.Bitset {
	fr := sp.Frame
	n := len(fr.Rows)
	matches := make([]*bitset.Bitset, len(selectors))
	for si, sel := range selectors {
		words := make([]uint64, (n+63)/64)
		if sel.Op == predicate.OpEq {
			for i, b := range fr.Bins[sel.AttrIdx] {
				if b == sel.slot {
					words[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		} else if vals, t := fr.Floats[sel.AttrIdx], sel.Val.Float(); sel.Op == predicate.OpLe {
			for i, f := range vals {
				if f <= t {
					words[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		} else {
			for i, f := range vals {
				if f >= t {
					words[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		}
		matches[si] = bitset.FromWords(n, words)
	}
	return matches
}

// numericThresholdValue renders a threshold as an engine value matching
// the column's type (integral thresholds on int columns stay ints so
// predicates read naturally: "moteid <= 15", not "moteid <= 15.0").
func numericThresholdValue(attr *feature.Attr, t float64) engine.Value {
	if attr.Type == engine.TInt && t == math.Trunc(t) {
		return engine.NewInt(int64(t))
	}
	if attr.Type == engine.TTime {
		return engine.NewTimeUnix(int64(t))
	}
	return engine.NewFloat(t)
}
