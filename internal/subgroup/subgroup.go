// Package subgroup implements CN2-SD-style subgroup discovery (Lavrač,
// Kavšek, Flach, Todorovski, JMLR 2004 — the paper's reference [4]): a
// greedy search over conjunctive selectors that finds a compact
// description of an example subgroup with unusually high positive-class
// density, using weighted relative accuracy (WRAcc) as the quality
// measure.
//
// It departs from CN2-SD in returning one rule, not a weighted covering
// of the positive class, followed by the search's best one-selector
// refinements as alternatives. In DBWipes the covering added nothing: on
// 20 of the quality table's 22 scenarios (internal/core) its second
// search found the first rule again. The alternatives are what fills the
// ranking's later places.
//
// In DBWipes this is the second half of the Dataset Enumerator: positives
// are the cleaned D', the population is F (the suspect groups' lineage)
// plus any contrast, and the best rule's covered set is the region every
// returned rule is ranked against.
//
// The search runs over positions of the space's learning frame
// (feature.Frame): selector match masks are built from its gathered
// columns, and only Rule.Covered translates back to table row ids.
package subgroup

import (
	"math"
	"slices"

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
	// WRAcc is the rule's weighted relative accuracy:
	// coverage × (precision − the population's positive rate).
	WRAcc float64
	// Covered lists the population rows matching the rule.
	Covered []int
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
	// minCoverage discards rules covering fewer population rows.
	minCoverage = 5
	// alternatives caps the one-selector rules returned after the best.
	alternatives = 3
)

// Discover runs CN2-SD's rule search over the space's learning frame
// with the given positive labels (parallel to sp.Frame.Rows). It returns
// the best rule, then up to alternatives one-selector rules: the best
// single selectors by WRAcc, each beating random (WRAcc > 0), no two
// covering the same rows and none covering the best rule's rows. It
// returns nil when no rule beats random, or when the labels are empty,
// all positive or all negative.
func Discover(sp *feature.Space, positive []bool) []Rule {
	rows := sp.Frame.Rows
	n := len(rows)
	if n == 0 || len(positive) != n {
		return nil
	}
	pos := bitset.New(n)
	for i, p := range positive {
		if p {
			pos.Set(i)
		}
	}
	if totalPos := pos.Count(); totalPos == 0 || totalPos == n {
		return nil
	}
	selectors := Selectors(sp)
	if len(selectors) == 0 {
		return nil
	}
	found := search(selectors, selectorMasks(sp, selectors), pos)
	out := make([]Rule, len(found))
	for i, c := range found {
		out[i] = Rule{Selectors: c.sels, WRAcc: c.wracc}
		c.cover.ForEach(func(p int) { out[i].Covered = append(out[i].Covered, rows[p]) })
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
// comes first in what it returns, nothing when its WRAcc is not
// positive. Keeping the best eight per depth instead of the best one
// changed no cell of the quality table (internal/core; CHANGES.md, PR 26).
// The alternatives that follow are depth 0's refinements as kept by
// keepSingle, less any covering the best rule's rows. WRAcc counts every
// position once, so it is popcounts over pos.
func search(selectors []Selector, matches []*bitset.Bitset, pos *bitset.Bitset) []candidate {
	n := pos.Len()
	// Root: full coverage.
	cur := candidate{cover: bitset.New(n), n: n}
	cur.cover.Fill()
	baseRate := float64(pos.Count()) / float64(n)

	// used guards against stacking contradictory selectors; numeric attrs
	// may contribute one <= and one >=. attrIdx -> bitmask 1:eq/le, 2:ge.
	used := map[int]int{}
	var best candidate // WRAcc 0 until a rule beats random
	var singles []candidate

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
			cov, covPos := float64(covN), float64(bitset.AndCount(scratch, pos))
			wracc := (cov / float64(n)) * (covPos/cov - baseRate)
			if depth == 0 && wracc > 0 {
				// Under the full root cover a refinement's cover is its
				// selector's mask, which the kept rule shares.
				singles = keepSingle(singles, candidate{sels: selectors[si : si+1 : si+1], cover: matches[si], n: covN, wracc: wracc})
			}
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
		if next.wracc > best.wracc {
			best = next
		}
		cur = next
	}
	if best.wracc <= 0 {
		return nil
	}
	out := []candidate{best}
	for _, c := range singles {
		if len(out) > alternatives {
			break
		}
		if !sameCover(c, best) {
			out = append(out, c)
		}
	}
	return out
}

// keepSingle inserts the depth-0 refinement c into singles, best WRAcc
// first (ties: vocabulary order), keeping alternatives+1 (the best rule
// may be one) and one per cover: a later selector with a kept cover has
// its WRAcc too and is dropped.
func keepSingle(singles []candidate, c candidate) []candidate {
	if len(singles) > alternatives && c.wracc <= singles[alternatives].wracc {
		return singles
	}
	i := len(singles)
	for j, o := range singles {
		if sameCover(o, c) {
			return singles
		}
		if i == len(singles) && c.wracc > o.wracc {
			i = j
		}
	}
	singles = slices.Insert(singles, i, c)
	return singles[:min(len(singles), alternatives+1)]
}

// sameCover reports whether a and b cover the same positions.
func sameCover(a, b candidate) bool {
	return a.n == b.n && bitset.AndCount(a.cover, b.cover) == a.n
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
