package expr

import (
	"fmt"

	"repro/internal/engine"
)

// This file implements the compiled row evaluator behind the vectorized
// query executor (internal/exec). The boxed interpreter evaluates
// expressions against a materialized []engine.Value row, which forces
// the executor to copy every column of every row it scans; function
// calls additionally allocate an argument slice per evaluation. Compile
// lowers a resolved expression into a closure tree that reads column
// values straight out of the source by (row, column) index and reuses
// preallocated argument buffers, so steady-state evaluation touches only
// the columns the expression references and allocates nothing.
//
// Semantics are shared with the interpreter, not duplicated: operator
// and predicate nodes delegate to the same value-level apply helpers
// Eval uses (Bin.apply/applyLogic, In.apply, Between.apply, scalarImpl
// functions), so the two paths cannot drift. The randomized parity test
// in internal/exec pins compiled-vs-interpreted equivalence end to end.

// ColumnSource provides direct access to stored values by row id and
// column index. *engine.Table satisfies it.
type ColumnSource interface {
	Value(row, col int) engine.Value
}

// Evaluator is a compiled expression, evaluated against one source row
// by id. Evaluators may reuse internal buffers and are therefore NOT
// safe for concurrent use — compile one per goroutine.
type Evaluator func(row int) (engine.Value, error)

// Compile lowers a resolved expression into an Evaluator over src. The
// second result is false when the expression contains a node Compile
// does not support (callers fall back to row-at-a-time Eval); every
// expression the parser produces today is supported, provided it has
// been resolved.
func Compile(e Expr, src ColumnSource) (Evaluator, bool) {
	switch n := e.(type) {
	case *Col:
		if n.Index < 0 {
			return nil, false // unresolved: fall back, Eval reports the error
		}
		idx := n.Index
		return func(row int) (engine.Value, error) {
			return src.Value(row, idx), nil
		}, true

	case *Lit:
		v := n.Val
		return func(int) (engine.Value, error) { return v, nil }, true

	case *Bin:
		l, ok := Compile(n.L, src)
		if !ok {
			return nil, false
		}
		r, ok := Compile(n.R, src)
		if !ok {
			return nil, false
		}
		if n.Op.IsLogic() {
			return func(row int) (engine.Value, error) {
				lv, err := l(row)
				if err != nil {
					return engine.Null, err
				}
				return n.applyLogic(lv, func() (engine.Value, error) { return r(row) })
			}, true
		}
		return func(row int) (engine.Value, error) {
			lv, err := l(row)
			if err != nil {
				return engine.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return engine.Null, err
			}
			return n.apply(lv, rv)
		}, true

	case *Not:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		return func(row int) (engine.Value, error) {
			v, err := x(row)
			if err != nil {
				return engine.Null, err
			}
			b, known := boolValue(v)
			if !known {
				return engine.Null, nil
			}
			return engine.NewBool(!b), nil
		}, true

	case *Neg:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		return func(row int) (engine.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			switch v.T {
			case engine.TInt:
				return engine.NewInt(-v.I), nil
			case engine.TFloat:
				return engine.NewFloat(-v.F), nil
			default:
				if v.T.IsNumeric() {
					return engine.NewFloat(-v.Float()), nil
				}
				return engine.Null, fmt.Errorf("expr: cannot negate %s", v.T)
			}
		}, true

	case *Func:
		impl, ok := scalarFuncs[n.Name]
		if !ok {
			return nil, false // unknown function: fall back, Eval reports it
		}
		args := make([]Evaluator, len(n.Args))
		for i, a := range n.Args {
			c, ok := Compile(a, src)
			if !ok {
				return nil, false
			}
			args[i] = c
		}
		buf := make([]engine.Value, len(args))
		return func(row int) (engine.Value, error) {
			for i, a := range args {
				v, err := a(row)
				if err != nil {
					return engine.Null, err
				}
				buf[i] = v
			}
			return impl.fn(buf)
		}, true

	case *In:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		list := make([]Evaluator, len(n.List))
		for i, e := range n.List {
			c, ok := Compile(e, src)
			if !ok {
				return nil, false
			}
			list[i] = c
		}
		return func(row int) (engine.Value, error) {
			xv, err := x(row)
			if err != nil {
				return engine.Null, err
			}
			return n.apply(xv, func(i int) (engine.Value, error) { return list[i](row) })
		}, true

	case *Between:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		lo, ok := Compile(n.Lo, src)
		if !ok {
			return nil, false
		}
		hi, ok := Compile(n.Hi, src)
		if !ok {
			return nil, false
		}
		return func(row int) (engine.Value, error) {
			xv, err := x(row)
			if err != nil {
				return engine.Null, err
			}
			lov, err := lo(row)
			if err != nil {
				return engine.Null, err
			}
			hiv, err := hi(row)
			if err != nil {
				return engine.Null, err
			}
			return n.apply(xv, lov, hiv)
		}, true

	case *IsNull:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		return func(row int) (engine.Value, error) {
			v, err := x(row)
			if err != nil {
				return engine.Null, err
			}
			return engine.NewBool(v.IsNull() != n.Invert), nil
		}, true

	case *Like:
		x, ok := Compile(n.X, src)
		if !ok {
			return nil, false
		}
		return func(row int) (engine.Value, error) {
			v, err := x(row)
			if err != nil {
				return engine.Null, err
			}
			if v.IsNull() {
				return engine.Null, nil
			}
			return engine.NewBool(likeMatch(v.Str(), n.Pattern) != n.Invert), nil
		}, true

	default:
		return nil, false
	}
}
