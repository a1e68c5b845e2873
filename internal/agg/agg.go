// Package agg implements the aggregate functions DBWipes supports
// (avg, sum, count, min, max, stddev, var, median — the paper lists the
// "common PostgreSQL aggregates") and the DISTINCT wrapper over them.
//
// DBWipes ranks a predicate by ε after the tuples it matches are removed
// from the suspect groups' aggregates, so a state must add, merge and
// answer "what if these values had never been added" — and every state
// does all three, through the one interface below, on float64s. A boxed
// value enters a state only through Add. Nothing outside this package
// asks a state what it can do.
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
	"sort"
	"strings"

	"repro/internal/engine"
)

// Func is one group's aggregate state. It takes and removes non-NULL
// values as float64s — callers skip NULLs themselves (adding or removing
// one never changes a state) — and yields NULL on empty input (except
// count, which yields 0). Add is the boxed entry.
//
// A removal names the values removed (each removes one added copy; a
// value never added removes nothing) and passes kept, which yields the
// added multiset minus them. Only min and max read kept, and only when
// every copy of their extremum goes; kept may be nil for every other
// state.
type Func interface {
	// Name returns the aggregate's lowercase SQL name.
	Name() string
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
	// Count returns the number of non-NULL values added.
	Count() int
	// Clone returns a fresh, empty aggregate of the same kind.
	Clone() Func
}

// Add folds one boxed value — what an expression evaluated to — into f:
// NULL adds nothing, a DISTINCT state keys a string by the string, and
// anything else is f.AddFloat(v.Float()).
func Add(f Func, v engine.Value) {
	d, distinct := f.(*Distinct)
	switch {
	case v.IsNull():
	case distinct && v.T == engine.TString:
		d.add(distinctValue{f: v.Float(), s: v.S, str: true}, 1)
	default:
		f.AddFloat(v.Float())
	}
}

// value boxes a float result; !ok is NULL.
func value(f float64, ok bool) engine.Value {
	if !ok {
		return engine.Null
	}
	return engine.NewFloat(f)
}

// isNull reports whether cell o is NULL in the word bitmap null.
func isNull(null []uint64, o int32) bool { return null[o>>6]&(1<<(uint(o)&63)) != 0 }

// New returns a fresh aggregate by name, or an error for unknown names.
func New(name string) (Func, error) {
	switch strings.ToLower(name) {
	case "count":
		return &count{}, nil
	case "sum":
		return &Sum{}, nil
	case "avg", "mean":
		return &avg{}, nil
	case "min":
		return newExtremum("min", true), nil
	case "max":
		return newExtremum("max", false), nil
	case "stddev", "stdev", "std":
		return &stddev{variance: variance{sample: true}}, nil
	case "stddev_pop":
		return &stddev{}, nil
	case "var", "variance":
		return &variance{sample: true}, nil
	case "var_pop":
		return &variance{}, nil
	case "median":
		return &median{}, nil
	default:
		return nil, fmt.Errorf("agg: unknown aggregate %q", name)
	}
}

// IsAggregate reports whether name names a supported aggregate.
func IsAggregate(name string) bool {
	_, err := New(name)
	return err == nil
}

// names returns the canonical aggregate names: one per kind of state,
// the name it reports.
func names() []string {
	return []string{"count", "sum", "avg", "min", "max", "stddev", "stddev_pop", "var", "var_pop", "median"}
}

// ---------------------------------------------------------------------
// count

// count counts non-NULL values.
type count struct{ n int }

// Name implements Func.
func (*count) Name() string { return "count" }

// Result implements Func.
func (c *count) Result() engine.Value { return engine.NewInt(int64(c.n)) }

// Count implements Func.
func (c *count) Count() int { return c.n }

// Clone implements Func.
func (*count) Clone() Func { return &count{} }

// ---------------------------------------------------------------------
// sum

// Sum sums numeric values.
type Sum struct {
	sum float64
	n   int
}

// Name implements Func.
func (*Sum) Name() string { return "sum" }

// Result implements Func.
func (s *Sum) Result() engine.Value { return value(s.sum, s.n > 0) }

// Count implements Func.
func (s *Sum) Count() int { return s.n }

// Clone implements Func.
func (*Sum) Clone() Func { return &Sum{} }

// ---------------------------------------------------------------------
// avg — the Sum state, divided.

// avg averages numeric values.
type avg struct{ Sum }

// Name implements Func.
func (*avg) Name() string { return "avg" }

// Result implements Func.
func (a *avg) Result() engine.Value { return value(a.ResultWithoutFloats(nil, nil)) }

// Clone implements Func.
func (*avg) Clone() Func { return &avg{} }

// ---------------------------------------------------------------------
// variance / stddev (Welford-free: sum and sum-of-squares; fine for the
// magnitudes in this system and exactly removable)

// variance computes population or sample variance.
type variance struct {
	sum, sumsq float64
	n          int
	sample     bool
}

// Name implements Func.
func (v *variance) Name() string {
	if v.sample {
		return "var"
	}
	return "var_pop"
}

// varianceFloat is the variance of n values with the given sum and sum
// of squares; ok is false below the sample size it needs.
func varianceFloat(sum, sumsq float64, n int, sample bool) (float64, bool) {
	minN := 1
	if sample {
		minN = 2
	}
	if n < minN {
		return 0, false
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
	return ss / den, true
}

// Result implements Func.
func (v *variance) Result() engine.Value {
	return value(varianceFloat(v.sum, v.sumsq, v.n, v.sample))
}

// Count implements Func.
func (v *variance) Count() int { return v.n }

// Clone implements Func.
func (v *variance) Clone() Func { return &variance{sample: v.sample} }

// stddev is the square root of variance.
type stddev struct {
	variance
}

// Name implements Func.
func (s *stddev) Name() string {
	if s.sample {
		return "stddev"
	}
	return "stddev_pop"
}

// Result implements Func.
func (s *stddev) Result() engine.Value { return value(s.ResultWithoutFloats(nil, nil)) }

// Clone implements Func.
func (s *stddev) Clone() Func { return &stddev{variance: variance{sample: s.sample}} }

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

// Result implements Func.
func (e *extremum) Result() engine.Value { return value(e.best, e.n > 0) }

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

// ---------------------------------------------------------------------
// median — holistic; keeps all values, sorts lazily.

// median computes the median (mean of the two middle elements for even
// counts).
type median struct {
	vals   []float64
	sorted bool
}

// Name implements Func.
func (*median) Name() string { return "median" }

func (m *median) ensureSorted() {
	if !m.sorted {
		sort.Float64s(m.vals)
		m.sorted = true
	}
}

func medianOfSorted(vals []float64) (float64, bool) {
	n := len(vals)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return vals[n/2], true
	}
	return (vals[n/2-1] + vals[n/2]) / 2, true
}

// Result implements Func.
func (m *median) Result() engine.Value {
	m.ensureSorted()
	return value(medianOfSorted(m.vals))
}

// Count implements Func.
func (m *median) Count() int { return len(m.vals) }

// Clone implements Func.
func (*median) Clone() Func { return &median{} }
