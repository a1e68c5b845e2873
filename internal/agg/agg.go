// Package agg implements the aggregate functions DBWipes supports
// (avg, sum, count, min, max, stddev, var, median — the paper lists the
// "common PostgreSQL aggregates") and the DISTINCT wrapper over them.
//
// DBWipes ranks a predicate by ε after the tuples it matches are removed
// from the suspect groups' aggregates, so a state must add, merge and
// answer "what if these values had never been added" — and every state
// does all three, through the one interface below. Nothing outside this
// package asks a state what it can do.
//
// The scan folds a run of rows in one AddFloats call, whatever the
// statement: a global aggregate's block is one run. Removal support
// costs nothing on that path: min and max keep their extremum and how
// many copies of it were added, not the values, and a removal that takes
// every copy recomputes over the survivors the caller yields (kept).
package agg

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
)

// Func is one group's aggregate state. Implementations ignore NULL
// inputs, per SQL semantics, and yield NULL on empty input (except count,
// which yields 0).
//
// Values come in two forms. The executor and the scorer work on typed
// columns and use the float form: AddFloat(f) is exactly Add of a
// non-NULL value whose Float() is f, AddFloats is AddFloat of each
// selected non-NULL cell, and ResultWithoutFloats is exactly
// ResultWithoutSet of such values — callers skip NULLs themselves
// (adding or removing one never changes a state). The boxed form is the
// edge: Add takes what an expression evaluated to (computed and string
// arguments, and the reference scan), ResultWithoutSet is what the
// oracle removes through.
//
// A removal names the values removed (each removes one added copy; a
// value never added removes nothing) and passes kept, which yields the
// added multiset minus them. Only min and max read kept, and only when
// every copy of their extremum goes; kept may be nil for every other
// state.
type Func interface {
	// Name returns the aggregate's lowercase SQL name.
	Name() string
	// Add folds one value into the state.
	Add(v engine.Value)
	// AddFloat folds one non-NULL numeric value into the state.
	AddFloat(f float64)
	// AddFloats folds vals[o] for each o in sel whose bit in the NULL
	// words null is clear, in sel order: exactly AddFloat of each.
	AddFloats(vals []float64, null []uint64, sel []int32)
	// Merge folds other's state into the receiver as if other's values
	// had been added after the receiver's, in other's order — the combine
	// step of a partitioned scan (shards merge in row order) and, onto a
	// fresh Clone, a deep copy. It returns false, leaving the receiver
	// unchanged, when other is not a state of the same kind; between
	// states cloned from one prototype that cannot happen.
	Merge(other Func) bool
	// Result returns the aggregate of everything added so far.
	Result() engine.Value
	// ResultWithoutFloats returns the aggregate over the added multiset
	// minus vals; ok is false when that is NULL. It never mutates the
	// state: one state is read by every scoring worker at once. vals is
	// borrowed for the call.
	ResultWithoutFloats(vals []float64, kept iter.Seq[float64]) (result float64, ok bool)
	// ResultWithoutSet is ResultWithoutFloats of boxed values: the
	// aggregate excluding every value in vs, NULLs removing nothing. The
	// reference scorer (influence.EpsWithoutRows) evaluates through it.
	ResultWithoutSet(vs []engine.Value, kept iter.Seq[engine.Value]) engine.Value
	// Count returns the number of non-NULL values added.
	Count() int
	// Clone returns a fresh, empty aggregate of the same kind.
	Clone() Func
}

// isNull reports whether cell o is NULL in the word bitmap null.
func isNull(null []uint64, o int32) bool { return null[o>>6]&(1<<(uint(o)&63)) != 0 }

// New returns a fresh aggregate by name, or an error for unknown names.
func New(name string) (Func, error) {
	switch strings.ToLower(name) {
	case "count":
		return &Count{}, nil
	case "sum":
		return &Sum{}, nil
	case "avg", "mean":
		return &Avg{}, nil
	case "min":
		return newExtremum("min", true), nil
	case "max":
		return newExtremum("max", false), nil
	case "stddev", "stdev", "std":
		return &Stddev{Variance: Variance{sample: true}}, nil
	case "stddev_pop":
		return &Stddev{}, nil
	case "var", "variance":
		return &Variance{sample: true}, nil
	case "var_pop":
		return &Variance{}, nil
	case "median":
		return &Median{}, nil
	default:
		return nil, fmt.Errorf("agg: unknown aggregate %q", name)
	}
}

// IsAggregate reports whether name names a supported aggregate.
func IsAggregate(name string) bool {
	_, err := New(name)
	return err == nil
}

// Names returns the canonical aggregate names.
func Names() []string {
	return []string{"count", "sum", "avg", "min", "max", "stddev", "var", "median"}
}

// ---------------------------------------------------------------------
// count

// Count counts non-NULL values.
type Count struct{ n int }

// Name implements Func.
func (*Count) Name() string { return "count" }

// Add implements Func.
func (c *Count) Add(v engine.Value) {
	if !v.IsNull() {
		c.n++
	}
}

// Result implements Func.
func (c *Count) Result() engine.Value { return engine.NewInt(int64(c.n)) }

// Count implements Func.
func (c *Count) Count() int { return c.n }

// Clone implements Func.
func (*Count) Clone() Func { return &Count{} }

// ResultWithoutSet implements Func.
func (c *Count) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	n := c.n
	for _, v := range vs {
		if !v.IsNull() {
			n--
		}
	}
	return engine.NewInt(int64(n))
}

// ---------------------------------------------------------------------
// sum

// Sum sums numeric values.
type Sum struct {
	sum float64
	n   int
}

// Name implements Func.
func (*Sum) Name() string { return "sum" }

// Add implements Func.
func (s *Sum) Add(v engine.Value) {
	if v.IsNull() {
		return
	}
	s.sum += v.Float()
	s.n++
}

// Result implements Func.
func (s *Sum) Result() engine.Value {
	if s.n == 0 {
		return engine.Null
	}
	return engine.NewFloat(s.sum)
}

// Count implements Func.
func (s *Sum) Count() int { return s.n }

// Clone implements Func.
func (*Sum) Clone() Func { return &Sum{} }

// ResultWithoutSet implements Func.
func (s *Sum) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	sum, n := s.sum, s.n
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		sum -= v.Float()
		n--
	}
	if n <= 0 {
		return engine.Null
	}
	return engine.NewFloat(sum)
}

// ---------------------------------------------------------------------
// avg

// Avg averages numeric values.
type Avg struct {
	sum float64
	n   int
}

// Name implements Func.
func (*Avg) Name() string { return "avg" }

// Add implements Func.
func (a *Avg) Add(v engine.Value) {
	if v.IsNull() {
		return
	}
	a.sum += v.Float()
	a.n++
}

// Result implements Func.
func (a *Avg) Result() engine.Value {
	if a.n == 0 {
		return engine.Null
	}
	return engine.NewFloat(a.sum / float64(a.n))
}

// Count implements Func.
func (a *Avg) Count() int { return a.n }

// Clone implements Func.
func (*Avg) Clone() Func { return &Avg{} }

// ResultWithoutSet implements Func.
func (a *Avg) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	sum, n := a.sum, a.n
	for _, v := range vs {
		if v.IsNull() {
			continue
		}
		sum -= v.Float()
		n--
	}
	if n <= 0 {
		return engine.Null
	}
	return engine.NewFloat(sum / float64(n))
}

// ---------------------------------------------------------------------
// variance / stddev (Welford-free: sum and sum-of-squares; fine for the
// magnitudes in this system and exactly removable)

// Variance computes population or sample variance.
type Variance struct {
	sum, sumsq float64
	n          int
	sample     bool
}

// Name implements Func.
func (v *Variance) Name() string {
	if v.sample {
		return "var"
	}
	return "var_pop"
}

// Add implements Func.
func (v *Variance) Add(x engine.Value) {
	if x.IsNull() {
		return
	}
	f := x.Float()
	v.sum += f
	v.sumsq += f * f
	v.n++
}

func varianceOf(sum, sumsq float64, n int, sample bool) engine.Value {
	minN := 1
	if sample {
		minN = 2
	}
	if n < minN {
		return engine.Null
	}
	mean := sum / float64(n)
	ss := sumsq - float64(n)*mean*mean
	if ss < 0 {
		ss = 0 // numeric guard
	}
	den := float64(n)
	if sample {
		den = float64(n - 1)
	}
	return engine.NewFloat(ss / den)
}

// Result implements Func.
func (v *Variance) Result() engine.Value { return varianceOf(v.sum, v.sumsq, v.n, v.sample) }

// Count implements Func.
func (v *Variance) Count() int { return v.n }

// Clone implements Func.
func (v *Variance) Clone() Func { return &Variance{sample: v.sample} }

// ResultWithoutSet implements Func.
func (v *Variance) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	sum, sumsq, n := v.sum, v.sumsq, v.n
	for _, x := range vs {
		if x.IsNull() {
			continue
		}
		f := x.Float()
		sum -= f
		sumsq -= f * f
		n--
	}
	return varianceOf(sum, sumsq, n, v.sample)
}

// Stddev is the square root of Variance.
type Stddev struct {
	Variance
}

// Name implements Func.
func (s *Stddev) Name() string {
	if s.sample {
		return "stddev"
	}
	return "stddev_pop"
}

func sqrtValue(v engine.Value) engine.Value {
	if v.IsNull() {
		return engine.Null
	}
	return engine.NewFloat(math.Sqrt(v.Float()))
}

// Result implements Func.
func (s *Stddev) Result() engine.Value {
	return sqrtValue(varianceOf(s.sum, s.sumsq, s.n, s.sample))
}

// Clone implements Func.
func (s *Stddev) Clone() Func { return &Stddev{Variance: Variance{sample: s.sample}} }

// ResultWithoutSet implements Func.
func (s *Stddev) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	return sqrtValue(s.Variance.ResultWithoutSet(vs, nil))
}

// ---------------------------------------------------------------------
// min / max — the extremum, how many added values equal it, and how many
// values were added. Removal keeps the extremum while a copy survives and
// otherwise recomputes over the survivors the caller yields.

type extremum struct {
	name   string
	min    bool
	best   float64 // meaningful when n > 0
	copies int     // added values == best
	n      int
}

func newExtremum(name string, min bool) *extremum { return &extremum{name: name, min: min} }

// Name implements Func.
func (e *extremum) Name() string { return e.name }

// displaces reports whether a newly seen value f should replace the
// current best. engine.Compare treats NaN as equal to everything, so
// any element of a NaN-containing multiset is a valid extremum; this
// picks the deterministic, order-independent one: NaN never displaces a
// real value and a real value always displaces NaN, so best is NaN only
// when every value is NaN. (A plain comparison here made the result
// depend on arrival order — first value NaN stuck forever — which also
// broke the shard-merge equivalence Merge needs.)
func (e *extremum) displaces(f, best float64) bool {
	switch {
	case f != f:
		return false
	case best != best:
		return true
	case e.min:
		return f < best
	}
	return f > best
}

// fold takes in copies values equal to f (n is the caller's to count).
// Equal is ==, so -0 and +0 are copies of one another, and the first
// seen stays best.
func (e *extremum) fold(f float64, copies int) {
	switch {
	case e.n == 0 || e.displaces(f, e.best):
		e.best, e.copies = f, copies
	case f == e.best:
		e.copies += copies
	}
}

// Add implements Func.
func (e *extremum) Add(v engine.Value) {
	if !v.IsNull() {
		e.AddFloat(v.Float())
	}
}

// Result implements Func.
func (e *extremum) Result() engine.Value {
	if e.n == 0 {
		return engine.Null
	}
	return engine.NewFloat(e.best)
}

// Count implements Func.
func (e *extremum) Count() int { return e.n }

// Clone implements Func.
func (e *extremum) Clone() Func { return newExtremum(e.name, e.min) }

// without is the extremum once gone copies of best are removed: best
// while a copy survives, otherwise the extremum of kept. A NaN best
// means every value is NaN, and it survives any removal.
func (e *extremum) without(gone int, kept iter.Seq[float64]) (float64, bool) {
	if gone < e.copies || e.best != e.best {
		return e.best, true
	}
	left := extremum{min: e.min}
	for f := range kept {
		left.fold(f, 1)
		left.n++
	}
	return left.best, left.n > 0
}

// ResultWithoutSet implements Func.
func (e *extremum) ResultWithoutSet(vs []engine.Value, kept iter.Seq[engine.Value]) engine.Value {
	if e.n == 0 {
		return engine.Null
	}
	gone := 0
	for _, v := range vs {
		if !v.IsNull() && v.Float() == e.best {
			gone++
		}
	}
	best, ok := e.without(gone, func(yield func(float64) bool) {
		for v := range kept {
			if !v.IsNull() && !yield(v.Float()) {
				return
			}
		}
	})
	if !ok {
		return engine.Null
	}
	return engine.NewFloat(best)
}

// ---------------------------------------------------------------------
// median — holistic; keeps all values, sorts lazily.

// Median computes the median (mean of the two middle elements for even
// counts).
type Median struct {
	vals   []float64
	sorted bool
}

// Name implements Func.
func (*Median) Name() string { return "median" }

// Add implements Func.
func (m *Median) Add(v engine.Value) {
	if v.IsNull() {
		return
	}
	m.vals = append(m.vals, v.Float())
	m.sorted = false
}

func (m *Median) ensureSorted() {
	if !m.sorted {
		sort.Float64s(m.vals)
		m.sorted = true
	}
}

func medianOfSorted(vals []float64) engine.Value {
	n := len(vals)
	if n == 0 {
		return engine.Null
	}
	if n%2 == 1 {
		return engine.NewFloat(vals[n/2])
	}
	return engine.NewFloat((vals[n/2-1] + vals[n/2]) / 2)
}

// Result implements Func.
func (m *Median) Result() engine.Value {
	m.ensureSorted()
	return medianOfSorted(m.vals)
}

// Count implements Func.
func (m *Median) Count() int { return len(m.vals) }

// Clone implements Func.
func (*Median) Clone() Func { return &Median{} }

// ResultWithoutSet implements Func. It deliberately avoids
// ensureSorted: removal evaluation runs concurrently from the ranker's
// scoring workers, so it must not mutate shared state — it filters into
// a local slice and sorts that instead.
func (m *Median) ResultWithoutSet(vs []engine.Value, _ iter.Seq[engine.Value]) engine.Value {
	drop := make(map[float64]int, len(vs))
	nd := 0
	for _, v := range vs {
		if !v.IsNull() {
			drop[v.Float()]++
			nd++
		}
	}
	return m.withoutSorted(drop, nd)
}

// withoutSorted returns the median of vals minus the drop multiset,
// without touching the receiver's slice or sorted flag.
func (m *Median) withoutSorted(drop map[float64]int, nd int) engine.Value {
	capHint := len(m.vals) - nd
	if capHint < 0 {
		capHint = 0
	}
	kept := make([]float64, 0, capHint)
	for _, f := range m.vals {
		if drop[f] > 0 {
			drop[f]--
			continue
		}
		kept = append(kept, f)
	}
	// Always sort the local copy rather than consulting the lazily
	// written sorted flag, so this path never writes shared state. It
	// still reads m.vals: concurrent removal calls are safe with each
	// other, and safe alongside Result() because exec.materialize
	// calls Result() on every aggregate (sorting it) before any
	// concurrent scoring starts.
	sort.Float64s(kept)
	return medianOfSorted(kept)
}
