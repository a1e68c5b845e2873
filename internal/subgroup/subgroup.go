// Package subgroup implements CN2-SD-style subgroup discovery (Lavrač,
// Kavšek, Flach, Todorovski, JMLR 2004 — the paper's reference [4]): a
// beam search over conjunctive selectors that finds compact descriptions
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
	"sort"

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

// Options tunes the search.
type Options struct {
	// BeamWidth is the number of partial rules kept per level (default 8).
	BeamWidth int
	// MaxSelectors caps rule length (default 3).
	MaxSelectors int
	// MaxRules caps how many rules the covering loop emits (default 8).
	MaxRules int
	// MinCoverage discards rules covering fewer population rows
	// (default 5).
	MinCoverage int
	// MinWRAcc discards rules at or below this quality (default 0:
	// require better than random).
	MinWRAcc float64
	// CoverDecay is the additive weighted-covering parameter: after a
	// positive example is covered k times its weight is 1/(1+k·CoverDecay)
	// (default 1, the classic 1/(1+k)).
	CoverDecay float64
}

func (o *Options) defaults() {
	if o.BeamWidth <= 0 {
		o.BeamWidth = 8
	}
	if o.MaxSelectors <= 0 {
		o.MaxSelectors = 3
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 8
	}
	if o.MinCoverage <= 0 {
		o.MinCoverage = 5
	}
	if o.CoverDecay <= 0 {
		o.CoverDecay = 1
	}
}

// Discover runs CN2-SD over the space's learning frame with the given
// positive labels (parallel to sp.Frame.Rows). It returns rules sorted
// by discovery order (best first by the covering loop's construction).
func Discover(sp *feature.Space, positive []bool, opt Options) []Rule {
	opt.defaults()
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
	for len(out) < opt.MaxRules {
		best, ok := beamSearch(selectors, matches, positive, weights, n, opt)
		if !ok || best.wracc <= opt.MinWRAcc {
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
				weights[i] = 1 / (1 + opt.CoverDecay*float64(coverCount[i]))
			}
		})
		if !newlyCovered {
			break // no progress: every positive the rule covers was already covered
		}
	}
	return out
}

// candidate is a partial rule in the beam. Coverage is kept as a bitset
// over population positions so refinements are a word-level AND with the
// selector's match mask instead of a scan of the parent's coverage.
type candidate struct {
	sels  []Selector
	cover *bitset.Bitset // covered population positions
	n     int            // cover.Count()
	wracc float64
	// used guards against stacking contradictory selectors; numeric
	// attrs may contribute one <= and one >=.
	used map[int]int // attrIdx -> bitmask 1:eq/le, 2:ge
}

func beamSearch(selectors []Selector, matches []*bitset.Bitset, positive []bool, weights []float64, n int, opt Options) (candidate, bool) {
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
	root := candidate{cover: bitset.New(n), n: n, used: map[int]int{}}
	root.cover.Fill()
	beam := []candidate{root}
	var best candidate
	bestOK := false

	// Scratch bitset reused across refinements; successful refinements
	// clone it out.
	scratch := bitset.New(n)
	for depth := 0; depth < opt.MaxSelectors; depth++ {
		var next []candidate
		for _, cand := range beam {
			for si, sel := range selectors {
				mask := 1
				if sel.Op == predicate.OpGe {
					mask = 2
				}
				if cand.used[sel.AttrIdx]&mask != 0 {
					continue
				}
				scratch.IntersectOf(cand.cover, matches[si])
				covN := scratch.Count()
				if covN < opt.MinCoverage || covN == cand.n {
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
				// Prune refinements that cannot reach the beam: keep a
				// shallow beam of the best so far per level.
				if len(next) >= opt.BeamWidth*4 && wracc <= next[len(next)-1].wracc {
					continue
				}
				used := make(map[int]int, len(cand.used)+1)
				for k, v := range cand.used {
					used[k] = v
				}
				used[sel.AttrIdx] |= mask
				nc := candidate{
					sels:  append(append([]Selector(nil), cand.sels...), sel),
					cover: scratch.Clone(),
					n:     covN,
					wracc: wracc,
					used:  used,
				}
				next = append(next, nc)
				if len(next) > opt.BeamWidth*8 {
					sort.SliceStable(next, func(a, b int) bool { return next[a].wracc > next[b].wracc })
					next = next[:opt.BeamWidth*2]
				}
				if !bestOK || nc.wracc > best.wracc ||
					(nc.wracc == best.wracc && len(nc.sels) < len(best.sels)) {
					best = nc
					bestOK = true
				}
			}
		}
		if len(next) == 0 {
			break
		}
		sort.SliceStable(next, func(a, b int) bool { return next[a].wracc > next[b].wracc })
		if len(next) > opt.BeamWidth {
			next = next[:opt.BeamWidth]
		}
		beam = next
	}
	return best, bestOK
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
// bitsets are what lets beamSearch refine coverage with word-level ANDs.
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
