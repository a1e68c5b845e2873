// Package feature derives a shared attribute space from an engine table
// for the three learners DBWipes uses (naive-Bayes cleaning, CN2-SD
// subgroup discovery, decision trees).
//
// Numeric columns contribute a set of quantile-derived split thresholds;
// string columns contribute their most frequent values as equality
// selectors. Construction has two steps: NewSpace gathers the columns and
// profiles them (all that example cleaning reads), Space.Discretize adds
// the thresholds (order statistics by selection, not a sort) and the
// bucket matrix the learners train on, which encodes every comparison. The
// aggregate's input column is excluded so that explanations are phrased
// over the remaining descriptive attributes; the paper's examples
// (moteid, voltage, memo) show that keeping the rest is what yields the
// interesting predicates.
package feature

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Kind classifies an attribute.
type Kind int

// Attribute kinds.
const (
	Numeric Kind = iota
	Categorical
)

// Attr is one usable attribute of the space.
type Attr struct {
	Name string
	Col  int
	Kind Kind
	// Type is the underlying engine column type.
	Type engine.Type
	// Values holds the frequent distinct values of a categorical
	// attribute (most frequent first, capped at maxCategories).
	Values []engine.Value
	// Thresholds holds candidate numeric split points (deduplicated
	// quantile midpoints); nil until Space.Discretize.
	Thresholds []float64
}

// Space is the derived attribute space over one table.
type Space struct {
	Table *engine.Table
	Attrs []Attr
	// Frame is the learning frame: the space's attributes gathered once
	// over Options.Rows. Subgroup discovery and tree induction address
	// rows by their position in it and never touch the table.
	Frame *Frame
	// What Discretize takes over from NewSpace: the statistics sample's
	// frame positions (nil: every position) and per categorical attribute
	// (parallel to Attrs) its dictionary code → Values index table.
	sample []int
	slots  [][]int16
}

// Frame is a space's attributes gathered over a list of table rows: one
// flat column per attribute (parallel to Space.Attrs), addressed by
// position in Rows. It is read through the typed column readers on the
// calling goroutine and holds no pin afterwards, so any number of
// goroutines may share it read-only.
type Frame struct {
	// Rows maps a position to its table row id.
	Rows []int
	// Floats[ai][i] is numeric attribute ai at position i (NaN when
	// NULL); nil for categorical attributes.
	Floats [][]float64
	// Codes[ai][i] is categorical attribute ai's dictionary code at
	// position i (-1 when NULL), in a code space private to the frame;
	// nil for numeric attributes.
	Codes [][]int32
	// Bins[ai][i] is position i's place in attribute ai's vocabulary —
	// the learning frame only, and nil until Space.Discretize, which is
	// how a learner tells a space it cannot train on. Numeric: the
	// threshold bucket (sort.SearchFloat64s over Thresholds; NULL and NaN
	// land in the last bucket, len(Thresholds)), so value <=
	// Thresholds[k] is Bins <= k; nil without thresholds. Categorical:
	// the index into Values, -1 for NULL and for values outside the
	// capped set.
	Bins [][]int16
	// Space is the space the columns belong to.
	Space *Space
}

// Options says which part of the table the space covers.
type Options struct {
	// Exclude lists column names to omit (case-insensitive) — the
	// aggregated column, so explanations are independent of the measure.
	Exclude []string
	// Rows is the population the learning frame covers and statistics
	// are taken over (default: all rows).
	Rows []int
}

// The vocabulary's fixed sizes. None is an option: nothing outside tests
// ever set one. Frame.Bins holds vocabulary positions as int16, which
// both fit with room to spare.
const (
	// maxCategories caps equality selectors per categorical attribute;
	// rarer values are not enumerated.
	maxCategories = 20
	// numThresholds is the number of quantile thresholds per numeric
	// attribute — the resolution a numeric clause can have: on the
	// quality table's planted scenarios (internal/core) a cause at the
	// 99th percentile is answered with the nearest cut, the 92nd.
	numThresholds = 12
	// sampleCap bounds how many rows are examined for statistics
	// (evenly spaced).
	sampleCap = 50000
)

// NewSpace derives the attribute space of t: it gathers the learning
// frame's columns and profiles them (which columns carry values, the
// frequent categorical Values) — everything example cleaning reads.
// Thresholds and Bins are Discretize's, the step a stage that trains
// learners runs. On an out-of-core table a chunk-load failure panics
// engine.SegmentLoadError (see engine.CatchSegmentLoad).
func NewSpace(t *engine.Table, opt Options) *Space {
	excluded := make(map[string]bool, len(opt.Exclude))
	for _, e := range opt.Exclude {
		excluded[strings.ToLower(e)] = true
	}

	rows := opt.Rows
	if rows == nil {
		rows = make([]int, t.NumRows())
		for i := range rows {
			rows[i] = i
		}
	}
	sp := &Space{Table: t}
	// Statistics run over an evenly spaced sample of the frame's
	// positions when it is larger than sampleCap.
	if len(rows) > sampleCap {
		sp.sample = make([]int, sampleCap)
		step := float64(len(rows)) / float64(sampleCap)
		for i := range sp.sample {
			sp.sample[i] = int(float64(i) * step)
		}
	}

	fr := &Frame{Rows: rows, Space: sp}
	sp.Frame = fr
	for c, col := range t.Schema() {
		if excluded[strings.ToLower(col.Name)] {
			continue
		}
		attr := Attr{Name: col.Name, Col: c, Type: col.Type}
		var floats []float64
		var codes []int32
		var slot []int16
		switch {
		case col.Type.IsNumeric():
			floats = gatherFloats(t, c, rows)
			if !slices.ContainsFunc(sampled(floats, sp.sample), finite) {
				continue
			}
			attr.Kind = Numeric
		case col.Type == engine.TString:
			var dict []string
			codes, dict = gatherCodes(t, c, rows)
			if slot = attr.profileCategorical(sampled(codes, sp.sample), dict); slot == nil {
				continue
			}
		default:
			continue
		}
		sp.Attrs = append(sp.Attrs, attr)
		fr.Floats = append(fr.Floats, floats)
		fr.Codes = append(fr.Codes, codes)
		sp.slots = append(sp.slots, slot)
	}
	return sp
}

// Discretize is construction's second step, for the stage that trains
// learners: the numeric attributes' quantile Thresholds (one selection
// over the statistics sample each) and the learning frame's Bins. It works on the
// columns NewSpace gathered — the table is not read again — changes
// nothing a profile-only reader saw, and is idempotent; run it before
// the space is shared between goroutines. It returns s.
func (s *Space) Discretize() *Space {
	fr := s.Frame
	if fr.Bins != nil {
		return s
	}
	fr.Bins = make([][]int16, len(s.Attrs))
	for ai := range s.Attrs {
		a := &s.Attrs[ai]
		if a.Kind == Numeric {
			a.Thresholds = quantileThresholds(sampled(fr.Floats[ai], s.sample))
			fr.Bins[ai] = bucketize(fr.Floats[ai], a.Thresholds)
			continue
		}
		bins := make([]int16, len(fr.Codes[ai]))
		for i, code := range fr.Codes[ai] {
			bins[i] = -1
			if code >= 0 {
				bins[i] = s.slots[ai][code]
			}
		}
		fr.Bins[ai] = bins
	}
	s.sample, s.slots = nil, nil
	return s
}

// sampled returns col at the sample positions; all of it without a
// sample.
func sampled[T any](col []T, sample []int) []T {
	if sample == nil {
		return col
	}
	out := make([]T, len(sample))
	for i, p := range sample {
		out[i] = col[p]
	}
	return out
}

// gatherFloats reads numeric column c at rows (NaN at NULL). The rows
// are sorted, so each segment's run of them is read from one Floats
// call.
func gatherFloats(t *engine.Table, c int, rows []int) []float64 {
	r := t.NewColReader(c)
	defer r.Close()
	out := make([]float64, len(rows))
	segBits := t.SegmentBits()
	for i := 0; i < len(rows); {
		k := rows[i] >> segBits
		vals, _ := r.Floats(k)
		for base := k << segBits; i < len(rows) && rows[i]>>segBits == k; i++ {
			out[i] = vals[rows[i]-base]
		}
	}
	return out
}

// gatherCodes reads string column c at rows as dictionary codes (-1 =
// NULL) plus the code → string table, one pinned chunk at a time.
func gatherCodes(t *engine.Table, c int, rows []int) ([]int32, []string) {
	r := t.NewColReader(c)
	defer r.Close()
	out := make([]int32, len(rows))
	for i, row := range rows {
		out[i] = r.Code(row)
	}
	return out, t.Dict(c).Values()
}

// finite reports whether f takes part in the numeric vocabulary.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// quantileThresholds returns the deduplicated quantile cuts of the finite
// values in (a sample of) a numeric column, −0 read as +0: the order
// statistics at ranks q·(m−1)/(numThresholds+1) of its m finite values,
// by selection — one linear check when the column is already in order, as
// one gathered in row order (a timestamp) often is. A constant column
// yields one cut.
func quantileThresholds(floats []float64) []float64 {
	vals := make([]float64, 0, len(floats))
	for _, f := range floats {
		if finite(f) {
			vals = append(vals, f+0) // −0 + 0 is +0
		}
	}
	var ranks [numThresholds]int
	for q := range ranks {
		ranks[q] = (q + 1) * (len(vals) - 1) / (numThresholds + 1)
	}
	if !slices.IsSorted(vals) {
		selectRanks(vals, 0, len(vals), ranks[:], 2*bits.Len(uint(len(vals))))
	}
	var ths []float64
	prev := math.Inf(-1)
	for _, r := range ranks {
		if cut := vals[r]; cut > prev {
			ths = append(ths, cut)
			prev = cut
		}
	}
	return ths
}

// selectRanks rearranges v[lo:hi] (no NaN, no −0) so that v[r] is what a
// sort would put there for every r in ranks (ascending, in [lo, hi)): a
// quickselect over a ninther pivot that descends only into parts holding
// a rank. A pivot that is its range's least value splits off its copies
// instead, resolving a class of duplicates at once; past depth
// partitions a range is sorted, so no input is quadratic.
func selectRanks(v []float64, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if hi-lo <= 16 || depth == 0 {
			slices.Sort(v[lo:hi])
			return
		}
		depth--
		p := ninther(v, lo, hi)
		mid := lo + partitionBelow(v[lo:hi], p)
		if mid == lo {
			mid += partitionBelow(v[lo:hi], math.Nextafter(p, math.Inf(1)))
		} else {
			selectRanks(v, lo, mid, ranks[:sort.SearchInts(ranks, mid)], depth)
		}
		lo, ranks = mid, ranks[sort.SearchInts(ranks, mid):]
	}
}

// partitionBelow moves the values of v below p to its front and returns
// their count: a Lomuto pass whose one data-dependent step compiles to
// SETcc, not a branch, so a random column costs no mispredictions.
func partitionBelow(v []float64, p float64) int {
	mid := 0
	for i, x := range v {
		v[i], v[mid] = v[mid], x
		below := 0
		if p > x {
			below = 1
		}
		mid += below
	}
	return mid
}

// ninther is the median of three medians of three, from the start, middle
// and end of v[lo:hi] (hi−lo > 16).
func ninther(v []float64, lo, hi int) float64 {
	s, m, e := (hi-lo)/8, lo+(hi-lo)/2, hi-1
	return median3(median3(v[lo], v[lo+s], v[lo+2*s]), median3(v[m-s], v[m], v[m+s]), median3(v[e-2*s], v[e-s], v[e]))
}

func median3(a, b, c float64) float64 { return max(min(a, b), min(max(a, b), c)) }

// bucketize resolves every position's threshold bucket once, so no
// learner repeats the binary search per node, per tree or per selector.
func bucketize(floats []float64, ths []float64) []int16 {
	if len(ths) == 0 {
		return nil
	}
	b := make([]int16, len(floats))
	for i, f := range floats {
		k := len(ths)
		if !math.IsNaN(f) {
			k = sort.SearchFloat64s(ths, f)
		}
		b[i] = int16(k)
	}
	return b
}

// profileCategorical picks a's most frequent values (ties by value) in
// (a sample of) its gathered column and returns the code → Values index
// table, -1 outside the capped set; nil when there is no value.
func (a *Attr) profileCategorical(codes []int32, dict []string) []int16 {
	counts := make([]int, len(dict))
	var seen []int32
	for _, c := range codes {
		if c >= 0 {
			if counts[c] == 0 {
				seen = append(seen, c)
			}
			counts[c]++
		}
	}
	if len(seen) == 0 {
		return nil
	}
	sort.Slice(seen, func(i, j int) bool {
		if counts[seen[i]] != counts[seen[j]] {
			return counts[seen[i]] > counts[seen[j]]
		}
		return dict[seen[i]] < dict[seen[j]]
	})
	if len(seen) > maxCategories {
		seen = seen[:maxCategories]
	}
	a.Kind = Categorical
	slot := make([]int16, len(dict))
	for i := range slot {
		slot[i] = -1
	}
	for vi, c := range seen {
		a.Values = append(a.Values, engine.NewString(dict[c]))
		slot[c] = int16(vi)
	}
	return slot
}

// ThresholdValue renders threshold t in the attribute's type ("moteid <=
// 15", not "moteid <= 15.0"). Its float is t itself, the cut Bins holds:
// a cut no int64 holds stays a float.
func (a *Attr) ThresholdValue(t float64) engine.Value {
	if i := int64(t); float64(i) == t {
		switch a.Type {
		case engine.TInt:
			return engine.NewInt(i)
		case engine.TTime:
			return engine.NewTimeUnix(i)
		}
	}
	return engine.NewFloat(t)
}
