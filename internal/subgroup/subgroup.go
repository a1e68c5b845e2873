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
	// slot is Val's index in the attribute's vocabulary: a categorical
	// attribute's Values (what the learning frame's Bins hold), a numeric
	// one's Thresholds.
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
	w := newWeighting(positive)
	totalPos := w.pos.Count()
	if totalPos == 0 || totalPos == n {
		return nil
	}

	selectors := Selectors(sp)
	if len(selectors) == 0 {
		return nil
	}
	matches := selectorMasks(sp, selectors)

	var out []Rule
	for len(out) < maxRules {
		best, ok := search(selectors, matches, w, n)
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
		rule.Precision = float64(rule.Pos) / float64(len(rule.Covered))
		rule.Recall = float64(rule.Pos) / float64(totalPos)
		out = append(out, rule)

		if !w.cover(best.cover) {
			break // no progress: every positive the rule covers was already covered
		}
	}
	return out
}

// weighting is the covering loop's example weights as bitsets: a
// position weighs 1 until rules cover it, a positive covered by k rules
// 1/(1+k). There are at most maxRules+1 distinct weights, so a weighted
// count is Σₖ wₖ·popcount(set ∧ layerₖ).
type weighting struct {
	pos    *bitset.Bitset   // the positive positions
	layers []*bitset.Bitset // layers[k]: the positives covered by k rules
}

func newWeighting(positive []bool) *weighting {
	pos := bitset.New(len(positive))
	for i, p := range positive {
		if p {
			pos.Set(i)
		}
	}
	return &weighting{pos: pos, layers: []*bitset.Bitset{pos.Clone()}}
}

// sums returns the weight of set's positions and of its positives, given
// their counts n and npos.
func (w *weighting) sums(set *bitset.Bitset, n, npos int) (all, pos float64) {
	var decayed float64
	for k, layer := range w.layers[1:] {
		c := bitset.AndCount(set, layer)
		n, npos = n-c, npos-c
		decayed += float64(c) / float64(k+2)
	}
	return float64(n) + decayed, float64(npos) + decayed
}

// cover records one more rule covering set: each covered positive moves
// up a layer. It reports whether the rule covered a positive no rule had.
func (w *weighting) cover(set *bitset.Bitset) bool {
	moved, up := bitset.New(set.Len()), bitset.New(set.Len())
	moved.IntersectOf(set, w.pos)
	progress := bitset.AndCount(moved, w.layers[0]) > 0
	w.layers = append(w.layers, bitset.New(set.Len()))
	for k := len(w.layers) - 1; k > 0; k-- {
		up.IntersectOf(w.layers[k-1], moved)
		w.layers[k].AndNot(moved)
		w.layers[k].Or(up)
	}
	w.layers[0].AndNot(moved)
	if top := len(w.layers) - 1; !w.layers[top].Any() {
		w.layers = w.layers[:top]
	}
	return progress
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
// Every weighted sum is popcounts (weighting.sums).
func search(selectors []Selector, matches []*bitset.Bitset, w *weighting, n int) (candidate, bool) {
	// Root: full coverage.
	cur := candidate{cover: bitset.New(n), n: n}
	cur.cover.Fill()
	totalW, posW := w.sums(cur.cover, n, w.pos.Count())
	baseRate := posW / totalW

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
			covW, covPosW := w.sums(scratch, covN, bitset.AndCount(scratch, w.pos))
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
			for k, t := range attr.Thresholds {
				tv := attr.ThresholdValue(t)
				selectors = append(selectors,
					Selector{AttrIdx: ai, Op: predicate.OpLe, Val: tv, slot: int16(k)},
					Selector{AttrIdx: ai, Op: predicate.OpGe, Val: tv, slot: int16(k)},
				)
			}
		}
	}
	return selectors
}

// selectorMasks builds one match bitset per selector over the learning
// frame's positions, every selector of an attribute from one pass over
// its Bins (attrMasks). The bitsets are what lets search refine coverage
// with word-level ANDs.
func selectorMasks(sp *feature.Space, selectors []Selector) []*bitset.Bitset {
	matches := make([]*bitset.Bitset, len(selectors))
	masks := make([][]*bitset.Bitset, len(sp.Attrs))
	for si, sel := range selectors {
		ai, k := sel.AttrIdx, int(sel.slot)
		if masks[ai] == nil {
			masks[ai] = attrMasks(sp.Frame, ai)
		}
		if sel.Op == predicate.OpGe {
			k += len(sp.Attrs[ai].Thresholds)
		}
		matches[si] = masks[ai][k]
	}
	return matches
}

// attrMasks returns attribute ai's selector masks over the frame: value =
// Values[k] at k (categorical); value <= Thresholds[k] at k and >= at T+k
// (numeric, T thresholds; NaN/NULL compare false). A value in bucket b <
// T seeds le[b], and ge[b] if it is cut b, else ge[b−1]; one above every
// cut seeds ge[T−1]. Prefix ORs of le and suffix ORs of ge finish them.
func attrMasks(fr *feature.Frame, ai int) []*bitset.Bitset {
	a, vals, n := &fr.Space.Attrs[ai], fr.Floats[ai], len(fr.Rows)
	T, nw := len(a.Thresholds), (n+63)/64
	words := make([]uint64, (len(a.Values)+2*T)*nw)
	w := func(k int) []uint64 { return words[k*nw : (k+1)*nw : (k+1)*nw] }
	for i, b := range fr.Bins[ai] {
		wi, bit := i>>6, uint64(1)<<(uint(i)&63)
		switch k := int(b); {
		case a.Kind == feature.Categorical:
			if k >= 0 {
				w(k)[wi] |= bit
			}
		case k < T:
			w(k)[wi] |= bit
			if vals[i] == a.Thresholds[k] {
				w(T + k)[wi] |= bit
			} else if k > 0 {
				w(T + k - 1)[wi] |= bit
			}
		case !math.IsNaN(vals[i]):
			w(2*T - 1)[wi] |= bit
		}
	}
	masks := make([]*bitset.Bitset, len(a.Values)+2*T)
	for k := range masks {
		masks[k] = bitset.FromWords(n, w(k))
	}
	for k := 1; k < T; k++ {
		masks[k].Or(masks[k-1])
	}
	for k := 2*T - 2; k >= T; k-- {
		masks[k].Or(masks[k+1])
	}
	return masks
}
