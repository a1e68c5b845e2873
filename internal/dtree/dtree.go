// Package dtree implements the Predicate Enumerator's decision tree
// learner: a CART-style binary tree over mixed numeric/categorical
// attributes, split on gini impurity — one tree per candidate dataset.
//
// Each candidate dataset Dᶜᵢ is labeled positive against F − Dᶜᵢ; the
// root-to-leaf paths of positive-majority leaves convert to conjunctive
// predicates (internal/predicate) that become candidate explanations.
//
// Training never reads the table: examples are positions in the space's
// learning frame, and split search, partitioning and routing all run on
// the frame's int16 Bins matrix (threshold buckets and value slots,
// resolved once by internal/feature), which every concurrent training
// of one Debug pass shares read-only. Only PredictRow, which classifies
// an arbitrary table row, reads boxed values.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/feature"
	"repro/internal/predicate"
)

// Induction's fixed parameters. None is an option: nothing outside
// tests ever set one, and the quality table (internal/core,
// TestQualityTable) scores the pipeline as configured here. The split
// criterion is gini impurity alone: on that table trees split on entropy
// or gain ratio, alone or beside gini, answered every walkthrough alike
// and no planted scenario better (CHANGES.md, PR 26).
const (
	// maxDepth bounds tree depth: explanations must stay human-readable,
	// and the ranker penalizes long predicates anyway.
	maxDepth = 4
	// minLeaf is the minimum (weighted) examples per leaf.
	minLeaf = 5
	// minGain prunes splits whose impurity improvement is below this.
	minGain = 1e-4
	// minPurity is the positive fraction a leaf needs to emit a predicate.
	minPurity = 0.6
)

// Split is an internal node's test. Numeric: value <= Threshold goes
// left. Categorical: value == Val goes left.
type Split struct {
	AttrIdx   int
	Numeric   bool
	Threshold float64
	Val       engine.Value
	// bin is the split's place in the attribute's vocabulary — the
	// threshold's index or the value's slot — which is what training
	// routes by: feature.Frame.Bins <= bin (numeric) or == bin goes left.
	bin int16
}

// Node is one tree node.
type Node struct {
	// Leaf fields.
	Leaf     bool
	Positive bool    // majority class
	Purity   float64 // positive fraction
	Weight   float64 // weighted examples reaching the node
	N        int     // unweighted examples

	// Internal fields.
	Split       Split
	Left, Right *Node
}

// Tree is a trained decision tree.
type Tree struct {
	Root  *Node
	Space *feature.Space
	nodes int
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return t.nodes }

// trainer is one training run's working state. Split search and routing
// read only the learning frame's Bins matrix, which any number of
// concurrent runs share read-only.
type trainer struct {
	*Tree
	bins    [][]int16
	labels  []bool
	weights []float64
	// spill is partition's scratch; tot and pos are bestSplit's
	// per-vocabulary-entry accumulators.
	spill    []int32
	tot, pos []float64
}

// Train fits a tree on the space's learning frame: labels and optional
// weights (nil means uniform) are parallel to sp.Frame.Rows. The space
// must have been discretized; a profile-only one is an error, not a tree
// that found nothing to split on.
func Train(sp *feature.Space, labels []bool, weights []float64) (*Tree, error) {
	if sp.Frame.Bins == nil {
		return nil, fmt.Errorf("dtree: the feature space has no thresholds or bins (feature.Space.Discretize was not run)")
	}
	n := len(sp.Frame.Rows)
	if n == 0 || len(labels) != n {
		return nil, fmt.Errorf("dtree: %d rows with %d labels", n, len(labels))
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	} else if len(weights) != n {
		return nil, fmt.Errorf("dtree: %d rows with %d weights", n, len(weights))
	}
	vocab := 0
	for ai := range sp.Attrs {
		vocab = max(vocab, len(sp.Attrs[ai].Thresholds)+1, len(sp.Attrs[ai].Values))
	}
	tr := &trainer{
		Tree: &Tree{Space: sp}, bins: sp.Frame.Bins, labels: labels, weights: weights,
		spill: make([]int32, n), tot: make([]float64, vocab), pos: make([]float64, vocab),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	tr.Root = tr.build(idx, 0)
	return tr.Tree, nil
}

// impurity is the gini impurity of a node holding posW of totW weight.
func impurity(posW, totW float64) float64 {
	if totW == 0 {
		return 0
	}
	p := posW / totW
	return 2 * p * (1 - p)
}

func (t *trainer) leaf(posW, totW float64, n int) *Node {
	t.nodes++
	purity := 0.0
	if totW > 0 {
		purity = posW / totW
	}
	return &Node{Leaf: true, Positive: purity >= 0.5, Purity: purity, Weight: totW, N: n}
}

// goesLeft routes frame position i through a split.
func (t *trainer) goesLeft(s Split, i int32) bool {
	b := t.bins[s.AttrIdx][i]
	if s.Numeric {
		return b <= s.bin
	}
	return b == s.bin
}

// build grows the subtree over the frame positions idx (ascending, so
// every weighted sum accumulates in position order). It reorders idx.
func (t *trainer) build(idx []int32, depth int) *Node {
	var posW, totW float64
	for _, i := range idx {
		totW += t.weights[i]
		if t.labels[i] {
			posW += t.weights[i]
		}
	}
	if depth >= maxDepth || totW < 2*minLeaf || posW == 0 || posW == totW {
		return t.leaf(posW, totW, len(idx))
	}

	best, ok := t.bestSplit(idx, impurity(posW, totW), posW, totW)
	if !ok {
		return t.leaf(posW, totW, len(idx))
	}

	// Stable in-place partition: left rows compact to the front, right
	// rows spill and copy back behind them, both still ascending.
	nl, spill := 0, t.spill[:0]
	for _, i := range idx {
		if t.goesLeft(best, i) {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
	if nl == 0 || nl == len(idx) {
		return t.leaf(posW, totW, len(idx))
	}
	t.nodes++
	node := &Node{Split: best, Weight: totW, N: len(idx), Purity: posW / totW}
	node.Left = t.build(idx[:nl], depth+1)
	node.Right = t.build(idx[nl:], depth+1)

	// Collapse: if both children are leaves with the same class, the
	// split bought nothing human-readable.
	if node.Left.Leaf && node.Right.Leaf && node.Left.Positive == node.Right.Positive {
		return t.leaf(posW, totW, len(idx))
	}
	return node
}

// bestSplit scans the space's selector vocabulary. For each attribute it
// makes a single pass over the node's rows, accumulating weighted counts
// per vocabulary entry so every threshold/value of the attribute is
// scored from (prefix) sums — O(rows × attrs + splits) per node instead
// of O(rows × splits).
func (t *trainer) bestSplit(idx []int32, parentImp, totPos, totW float64) (Split, bool) {
	var best Split
	bestGain := minGain
	found := false

	consider := func(s Split, lPos, lTot float64) {
		rTot := totW - lTot
		rPos := totPos - lPos
		if lTot < minLeaf || rTot < minLeaf {
			return
		}
		childImp := (lTot*impurity(lPos, lTot) + rTot*impurity(rPos, rTot)) / totW
		if gain := parentImp - childImp; gain > bestGain {
			bestGain = gain
			best = s
			found = true
		}
	}

	for ai := range t.Space.Attrs {
		attr := &t.Space.Attrs[ai]
		bins := t.bins[ai]
		if bins == nil {
			continue // numeric without thresholds: nothing to split on
		}
		// tot[b]/pos[b] accumulate the rows in vocabulary entry b. Numeric:
		// bucket b holds Thresholds[b-1] < v <= Thresholds[b], the last one
		// everything above plus NULL/NaN (always right). Categorical: slot
		// b holds v == Values[b]; NULLs and uncapped values are skipped.
		tot, pos := t.tot[:len(attr.Thresholds)+1], t.pos[:len(attr.Thresholds)+1]
		if attr.Kind == feature.Categorical {
			tot, pos = t.tot[:len(attr.Values)], t.pos[:len(attr.Values)]
		}
		clear(tot)
		clear(pos)
		for _, i := range idx {
			b := bins[i]
			if b < 0 {
				continue
			}
			tot[b] += t.weights[i]
			if t.labels[i] {
				pos[b] += t.weights[i]
			}
		}
		if attr.Kind == feature.Categorical {
			for vi, v := range attr.Values {
				consider(Split{AttrIdx: ai, Val: v, bin: int16(vi)}, pos[vi], tot[vi])
			}
			continue
		}
		var lTot, lPos float64
		for k, th := range attr.Thresholds {
			lTot += tot[k]
			lPos += pos[k]
			consider(Split{AttrIdx: ai, Numeric: true, Threshold: th, bin: int16(k)}, lPos, lTot)
		}
	}
	return best, found
}

// PredictRow classifies one table row — any row of the live table,
// including ones appended after training — through boxed reads.
func (t *Tree) PredictRow(row int) bool {
	n := t.Root
	for !n.Leaf {
		s := n.Split
		v := t.Space.Table.Value(row, t.Space.Attrs[s.AttrIdx].Col)
		left := false
		switch {
		case v.IsNull():
		case s.Numeric:
			f := v.Float()
			left = !math.IsNaN(f) && f <= s.Threshold
		default:
			left = engine.Equal(v, s.Val)
		}
		if left {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Positive
}

// LeafPredicate describes one positive leaf as a predicate.
type LeafPredicate struct {
	Pred   predicate.Predicate
	Purity float64
	Weight float64
	N      int
}

// PositivePaths extracts the root-to-leaf conjunctions of every leaf
// whose positive purity is at least minPurity, best purity
// first. Paths simplify (x<=5 AND x<=3 → x<=3) before returning; paths
// that simplify to contradictions are dropped.
func (t *Tree) PositivePaths() []LeafPredicate {
	var out []LeafPredicate
	var walk func(n *Node, p predicate.Predicate)
	walk = func(n *Node, p predicate.Predicate) {
		if n.Leaf {
			if n.Positive && n.Purity >= minPurity {
				simplified, ok := p.Simplify()
				if ok {
					out = append(out, LeafPredicate{Pred: simplified, Purity: n.Purity, Weight: n.Weight, N: n.N})
				}
			}
			return
		}
		attr := &t.Space.Attrs[n.Split.AttrIdx]
		if n.Split.Numeric {
			tv := attr.ThresholdValue(n.Split.Threshold)
			walk(n.Left, p.And(predicate.Clause{Col: attr.Name, Op: predicate.OpLe, Val: tv}))
			walk(n.Right, p.And(predicate.Clause{Col: attr.Name, Op: predicate.OpGt, Val: tv}))
		} else {
			walk(n.Left, p.And(predicate.Clause{Col: attr.Name, Op: predicate.OpEq, Val: n.Split.Val}))
			walk(n.Right, p.And(predicate.Clause{Col: attr.Name, Op: predicate.OpNeq, Val: n.Split.Val}))
		}
	}
	walk(t.Root, predicate.Predicate{})
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Purity != out[j].Purity {
			return out[i].Purity > out[j].Purity
		}
		return out[i].Weight > out[j].Weight
	})
	return out
}

// String renders the tree for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n.Leaf {
			fmt.Fprintf(&b, "%sleaf pos=%v purity=%.2f n=%d\n", indent, n.Positive, n.Purity, n.N)
			return
		}
		attr := &t.Space.Attrs[n.Split.AttrIdx]
		if n.Split.Numeric {
			fmt.Fprintf(&b, "%s%s <= %g?\n", indent, attr.Name, n.Split.Threshold)
		} else {
			fmt.Fprintf(&b, "%s%s = %s?\n", indent, attr.Name, n.Split.Val.SQL())
		}
		walk(n.Left, indent+"  ")
		walk(n.Right, indent+"  ")
	}
	walk(t.Root, "")
	return b.String()
}
