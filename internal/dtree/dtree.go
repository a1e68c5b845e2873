// Package dtree implements the Predicate Enumerator's decision tree
// learner: a CART-style binary tree over mixed numeric/categorical
// attributes, split on gini impurity — one tree per Debug, on D'.
//
// D' is labeled positive against the rest of the learning population;
// the root-to-leaf paths of positive-majority leaves convert to
// conjunctive predicates (internal/predicate) that become candidate
// explanations.
//
// Training never reads the table: examples are positions in the space's
// learning frame, and split search, partitioning and routing all run on
// the frame's int16 Bins matrix (threshold buckets and value slots,
// resolved once by internal/feature), which it only reads.
package dtree

import (
	"fmt"
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
	// minLeaf is the minimum examples per leaf.
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
	N        int     // examples reaching the node

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
// read only the learning frame's Bins matrix.
type trainer struct {
	*Tree
	bins   [][]int16
	labels []bool
	// spill is partition's scratch; tot and pos are bestSplit's
	// per-vocabulary-entry counts.
	spill    []int32
	tot, pos []int
}

// Train fits a tree on the space's learning frame: labels are parallel
// to sp.Frame.Rows. The space must have been discretized; a profile-only
// one is an error, not a tree that found nothing to split on.
func Train(sp *feature.Space, labels []bool) (*Tree, error) {
	if sp.Frame.Bins == nil {
		return nil, fmt.Errorf("dtree: the feature space has no thresholds or bins (feature.Space.Discretize was not run)")
	}
	n := len(sp.Frame.Rows)
	if n == 0 || len(labels) != n {
		return nil, fmt.Errorf("dtree: %d rows with %d labels", n, len(labels))
	}
	vocab := 0
	for ai := range sp.Attrs {
		vocab = max(vocab, len(sp.Attrs[ai].Thresholds)+1, len(sp.Attrs[ai].Values))
	}
	tr := &trainer{
		Tree: &Tree{Space: sp}, bins: sp.Frame.Bins, labels: labels,
		spill: make([]int32, n), tot: make([]int, vocab), pos: make([]int, vocab),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	tr.Root = tr.build(idx, 0)
	return tr.Tree, nil
}

// impurity is the gini impurity of a node holding pos positives of tot.
func impurity(pos, tot int) float64 {
	if tot == 0 {
		return 0
	}
	p := float64(pos) / float64(tot)
	return 2 * p * (1 - p)
}

func (t *trainer) leaf(pos, tot int) *Node {
	t.nodes++
	purity := 0.0
	if tot > 0 {
		purity = float64(pos) / float64(tot)
	}
	return &Node{Leaf: true, Positive: purity >= 0.5, Purity: purity, N: tot}
}

// goesLeft routes frame position i through a split.
func (t *trainer) goesLeft(s Split, i int32) bool {
	b := t.bins[s.AttrIdx][i]
	if s.Numeric {
		return b <= s.bin
	}
	return b == s.bin
}

// build grows the subtree over the frame positions idx (ascending). It
// reorders idx.
func (t *trainer) build(idx []int32, depth int) *Node {
	pos, tot := 0, len(idx)
	for _, i := range idx {
		if t.labels[i] {
			pos++
		}
	}
	if depth >= maxDepth || tot < 2*minLeaf || pos == 0 || pos == tot {
		return t.leaf(pos, tot)
	}

	best, ok := t.bestSplit(idx, impurity(pos, tot), pos, tot)
	if !ok {
		return t.leaf(pos, tot)
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
	if nl == 0 || nl == tot {
		return t.leaf(pos, tot)
	}
	t.nodes++
	node := &Node{Split: best, N: tot, Purity: float64(pos) / float64(tot)}
	node.Left = t.build(idx[:nl], depth+1)
	node.Right = t.build(idx[nl:], depth+1)

	// Collapse: if both children are leaves with the same class, the
	// split bought nothing human-readable.
	if node.Left.Leaf && node.Right.Leaf && node.Left.Positive == node.Right.Positive {
		return t.leaf(pos, tot)
	}
	return node
}

// bestSplit scans the space's selector vocabulary. For each attribute it
// makes a single pass over the node's rows, accumulating counts per
// vocabulary entry so every threshold/value of the attribute is
// scored from (prefix) sums — O(rows × attrs + splits) per node instead
// of O(rows × splits).
func (t *trainer) bestSplit(idx []int32, parentImp float64, totPos, totN int) (Split, bool) {
	var best Split
	bestGain := minGain
	found := false

	consider := func(s Split, lPos, lTot int) {
		rTot := totN - lTot
		rPos := totPos - lPos
		if lTot < minLeaf || rTot < minLeaf {
			return
		}
		childImp := (float64(lTot)*impurity(lPos, lTot) + float64(rTot)*impurity(rPos, rTot)) / float64(totN)
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
			tot[b]++
			if t.labels[i] {
				pos[b]++
			}
		}
		if attr.Kind == feature.Categorical {
			for vi, v := range attr.Values {
				consider(Split{AttrIdx: ai, Val: v, bin: int16(vi)}, pos[vi], tot[vi])
			}
			continue
		}
		var lTot, lPos int
		for k, th := range attr.Thresholds {
			lTot += tot[k]
			lPos += pos[k]
			consider(Split{AttrIdx: ai, Numeric: true, Threshold: th, bin: int16(k)}, lPos, lTot)
		}
	}
	return best, found
}

// LeafPredicate describes one positive leaf as a predicate.
type LeafPredicate struct {
	Pred   predicate.Predicate
	Purity float64
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
					out = append(out, LeafPredicate{Pred: simplified, Purity: n.Purity, N: n.N})
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
		return out[i].N > out[j].N
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
