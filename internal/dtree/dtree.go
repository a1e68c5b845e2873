// Package dtree implements the Predicate Enumerator's decision tree
// learner: a CART-style binary tree over mixed numeric/categorical
// attributes with selectable splitting criteria — gini impurity,
// information gain (entropy), and gain ratio — exactly the "m standard
// splitting and pruning strategies" the paper uses to construct several
// trees per candidate dataset.
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

// Criterion selects the split quality measure.
type Criterion int

// Split criteria.
const (
	Gini Criterion = iota
	Entropy
	GainRatio
)

// String returns the criterion name.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	case GainRatio:
		return "gainratio"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// ParseCriterion parses a criterion name.
func ParseCriterion(s string) (Criterion, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gini":
		return Gini, nil
	case "entropy", "infogain", "information":
		return Entropy, nil
	case "gainratio", "gain_ratio":
		return GainRatio, nil
	default:
		return Gini, fmt.Errorf("dtree: unknown criterion %q", s)
	}
}

// Options configures training.
type Options struct {
	Criterion Criterion
	// MaxDepth bounds tree depth (default 4 — explanations must stay
	// human-readable; the paper penalizes long predicates anyway).
	MaxDepth int
	// MinLeaf is the minimum (weighted) examples per leaf (default 5).
	MinLeaf float64
	// MinGain prunes splits whose quality improvement is below this
	// (default 1e-4).
	MinGain float64
	// MinPurity is the positive fraction a leaf needs to emit a
	// predicate (default 0.6).
	MinPurity float64
}

func (o *Options) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 5
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-4
	}
	if o.MinPurity <= 0 {
		o.MinPurity = 0.6
	}
}

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
	Opt   Options
	// TrainAccuracy is the weighted accuracy on the training set.
	TrainAccuracy float64
	nodes         int
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
func Train(sp *feature.Space, labels []bool, weights []float64, opt Options) (*Tree, error) {
	opt.defaults()
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
		Tree: &Tree{Space: sp, Opt: opt}, bins: sp.Frame.Bins, labels: labels, weights: weights,
		spill: make([]int32, n), tot: make([]float64, vocab), pos: make([]float64, vocab),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	tr.Root = tr.build(idx, 0)

	// Training accuracy.
	var correct, total float64
	for i := range labels {
		node := tr.Root
		for !node.Leaf {
			if tr.goesLeft(node.Split, int32(i)) {
				node = node.Left
			} else {
				node = node.Right
			}
		}
		if node.Positive == labels[i] {
			correct += weights[i]
		}
		total += weights[i]
	}
	if total > 0 {
		tr.TrainAccuracy = correct / total
	}
	return tr.Tree, nil
}

func impurity(crit Criterion, posW, totW float64) float64 {
	if totW == 0 {
		return 0
	}
	p := posW / totW
	switch crit {
	case Gini:
		return 2 * p * (1 - p)
	default: // Entropy and GainRatio both use entropy for child impurity
		return entropyOf(p)
	}
}

func entropyOf(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
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
	if depth >= t.Opt.MaxDepth || totW < 2*t.Opt.MinLeaf || posW == 0 || posW == totW {
		return t.leaf(posW, totW, len(idx))
	}

	best, ok := t.bestSplit(idx, impurity(t.Opt.Criterion, posW, totW), posW, totW)
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
	bestScore := t.Opt.MinGain
	found := false

	consider := func(s Split, lPos, lTot float64) {
		rTot := totW - lTot
		rPos := totPos - lPos
		if lTot < t.Opt.MinLeaf || rTot < t.Opt.MinLeaf {
			return
		}
		childImp := (lTot*impurity(t.Opt.Criterion, lPos, lTot) + rTot*impurity(t.Opt.Criterion, rPos, rTot)) / totW
		gain := parentImp - childImp
		score := gain
		if t.Opt.Criterion == GainRatio {
			splitInfo := entropyOf(lTot / totW)
			if splitInfo < 1e-9 {
				return
			}
			score = gain / splitInfo
		}
		if score > bestScore {
			bestScore = score
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
// whose positive purity is at least the tree's MinPurity, best purity
// first. Paths simplify (x<=5 AND x<=3 → x<=3) before returning; paths
// that simplify to contradictions are dropped.
func (t *Tree) PositivePaths() []LeafPredicate {
	var out []LeafPredicate
	var walk func(n *Node, p predicate.Predicate)
	walk = func(n *Node, p predicate.Predicate) {
		if n.Leaf {
			if n.Positive && n.Purity >= t.Opt.MinPurity {
				simplified, ok := p.Simplify()
				if ok {
					out = append(out, LeafPredicate{Pred: simplified, Purity: n.Purity, Weight: n.Weight, N: n.N})
				}
			}
			return
		}
		attr := &t.Space.Attrs[n.Split.AttrIdx]
		if n.Split.Numeric {
			tv := thresholdValue(attr, n.Split.Threshold)
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

func thresholdValue(attr *feature.Attr, th float64) engine.Value {
	if attr.Type == engine.TInt && th == math.Trunc(th) {
		return engine.NewInt(int64(th))
	}
	if attr.Type == engine.TTime {
		return engine.NewTimeUnix(int64(th))
	}
	return engine.NewFloat(th)
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
