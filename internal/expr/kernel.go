package expr

import (
	"math"
	"slices"

	"repro/internal/engine"
)

// This file is the typed numeric kernel compiler: a resolved expression
// over numeric columns, numeric literals, unary minus, + - * / %, epoch,
// bucket and the math1 functions lowers to straight loops over the typed
// chunks the engine stores (float64 coercions + NULL words), one loop per
// node over the rows a block selected. No Value is boxed.
//
// The kernel never guesses. It computes in float64 what the interpreter
// computes in float64, same operations in the same order, and tracks each
// node's static result type only to know where the interpreter computes
// in int64 instead: there the float result equals the integer one exactly
// while |v| < 2^53, and a block holding an int-typed value at or past
// that — a leaf cell its float chunk has rounded included — is DECLINED
// (ok == false): the caller evaluates those rows through the interpreter.
// A node the compiler does not know, or one on which the interpreter
// could return an error (epoch of a non-time argument), is refused at
// compile time. FuzzKeyKernelParity pins value bits (NaN payloads aside:
// operand order is the compiler's) and NULL-ness per row.

// FloatKernel is a compiled numeric expression. It owns scratch buffers,
// so compile one per goroutine; the slices Eval returns are valid until
// the next Eval.
type FloatKernel struct {
	// Cols lists the schema indexes of the columns the expression reads,
	// each once: Eval wants their chunks in this order.
	Cols []int
	// Monotone marks a kernel non-decreasing in its one column: the
	// column, epoch and bucket by a finite literal width > 0, composed.
	Monotone bool

	root kfn
	vals [][]float64
	null [][]uint64
	sel  []int32
}

// kfn evaluates one node over the current selection's n rows: out[j] is
// the value on row sel[j], bit j of null its NULL flag (the value is then
// garbage). ok is false when the block must be declined.
type kfn func(k *FloatKernel, n int) (out []float64, null []uint64, ok bool)

// CompileFloat lowers e, resolved against schema, into a kernel; false
// when e holds a node the kernel cannot prove equal to the interpreter.
func CompileFloat(e Expr, schema engine.Schema) (*FloatKernel, bool) {
	k := &FloatKernel{}
	root, _, ok := k.compile(e, schema)
	if !ok {
		return nil, false
	}
	k.root, k.Monotone = root, monotone(e)
	return k, true
}

// monotone reports whether a compiled e is non-decreasing in its one
// column (FloatKernel.Monotone).
func monotone(e Expr) bool {
	if f, ok := e.(*Func); ok {
		w, lit := f.Args[len(f.Args)-1].(*Lit)
		return (f.Name == "epoch" || f.Name == "bucket" && len(f.Args) == 2 && lit &&
			0 < w.Val.Float() && w.Val.Float() <= math.MaxFloat64) && monotone(f.Args[0])
	}
	_, col := e.(*Col)
	return col
}

// Eval evaluates the expression on the rows sel picks (chunk offsets) out
// of one segment, vals[i] and null[i] being its chunk of column Cols[i].
// Bit j of outNull is row sel[j]'s NULL flag; !ok declines the block.
func (k *FloatKernel) Eval(vals [][]float64, null [][]uint64, sel []int32) (out []float64, outNull []uint64, ok bool) {
	k.vals, k.null, k.sel = vals, null, sel
	return k.root(k, len(sel))
}

// intLike reports a static type the interpreter carries in Value.I.
func intLike(t engine.Type) bool { return t.IsNumeric() && t != engine.TFloat }

// exact reports whether every non-NULL value of an int-typed node is an
// integer its float64 carries exactly; float-typed nodes always pass.
func exact(t engine.Type, out []float64, null []uint64) bool {
	return !intLike(t) || !engine.RoundedInts(out, null)
}

func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

func setBit(words []uint64, j int) { words[j>>6] |= 1 << (uint(j) & 63) }

// compile returns e's kernel and static result type.
func (k *FloatKernel) compile(e Expr, schema engine.Schema) (kfn, engine.Type, bool) {
	switch n := e.(type) {
	case *Col:
		if n.Index < 0 || n.Index >= len(schema) || !schema[n.Index].Type.IsNumeric() {
			return nil, 0, false
		}
		typ, ci := schema[n.Index].Type, slices.Index(k.Cols, n.Index)
		if ci < 0 {
			ci, k.Cols = len(k.Cols), append(k.Cols, n.Index)
		}
		var vbuf []float64
		var nbuf []uint64
		return func(k *FloatKernel, n int) ([]float64, []uint64, bool) {
			out, null := grow(&vbuf, n), grow(&nbuf, (n+63)/64)
			clear(null)
			vals, words := k.vals[ci], k.null[ci]
			for j, o := range k.sel {
				out[j] = vals[o]
				if words[o>>6]&(1<<(uint(o)&63)) != 0 {
					setBit(null, j)
				}
			}
			return out, null, exact(typ, out, null)
		}, typ, true

	case *Lit:
		typ, c := n.Val.T, n.Val.Float()
		if !typ.IsNumeric() || (intLike(typ) && !(-1<<53 < c && c < 1<<53)) {
			return nil, 0, false
		}
		var vbuf []float64
		var nbuf []uint64 // stays zero: a literal is never NULL
		return func(_ *FloatKernel, n int) ([]float64, []uint64, bool) {
			if cap(vbuf) < n {
				vbuf, nbuf = make([]float64, n), make([]uint64, (n+63)/64)
				for j := range vbuf {
					vbuf[j] = c
				}
			}
			return vbuf[:n], nbuf, true
		}, typ, true

	case *Neg:
		x, xt, ok := k.compile(n.X, schema)
		if xt == engine.TInt { // -v.I: 0 stays +0
			return mapKernel(x, func(v float64) float64 { return 0 - v }), engine.TInt, ok
		}
		return mapKernel(x, func(v float64) float64 { return -v }), engine.TFloat, ok

	case *Bin:
		l, lt, lok := k.compile(n.L, schema)
		r, rt, rok := k.compile(n.R, schema)
		if n.Op > OpMod || !lok || !rok {
			return nil, 0, false
		}
		// Integer arithmetic stays integral except for division (apply).
		typ := engine.TFloat
		if lt == engine.TInt && rt == engine.TInt && n.Op != OpDiv {
			typ = engine.TInt
		}
		return binKernel(n.Op, typ, l, r), typ, true

	case *Func:
		if len(n.Args) == 0 {
			return nil, 0, false
		}
		x, xt, ok := k.compile(n.Args[0], schema)
		if !ok {
			return nil, 0, false
		}
		switch f := math1Funcs[n.Name]; {
		case f != nil && len(n.Args) == 1:
			return mapKernel(x, f), engine.TFloat, true
		case n.Name == "epoch" && len(n.Args) == 1 && xt == engine.TTime:
			return x, engine.TInt, true // NewInt(a[0].I): the same cells, retyped
		case n.Name == "bucket" && len(n.Args) == 2:
			w, wt, ok := k.compile(n.Args[1], schema)
			typ := engine.TFloat
			if xt == engine.TInt && wt == engine.TInt {
				typ = engine.TInt
			}
			return binKernel(opBucket, typ, x, w), typ, ok
		}
	}
	return nil, 0, false
}

// mapKernel is the kernel of a strict unary f; magnitudes an int-typed
// negation keeps exact need no second check.
func mapKernel(x kfn, f func(float64) float64) kfn {
	var vbuf []float64
	return func(k *FloatKernel, n int) ([]float64, []uint64, bool) {
		in, null, ok := x(k, n)
		out := grow(&vbuf, len(in))
		for j, v := range in {
			out[j] = f(v)
		}
		return out, null, ok
	}
}

// opBucket is bucket(x, w) as a binary kernel op, past the real BinOps.
const opBucket = OpOr + 1

// binKernel is the kernel of l op r with static result type typ: NULL
// where either side is, and where apply (or bucket) yields NULL for a zero
// divisor. An int-typed result adds +0 where the float op can produce -0.
func binKernel(op BinOp, typ engine.Type, l, r kfn) kfn {
	var vbuf []float64
	var nbuf []uint64
	return func(k *FloatKernel, n int) ([]float64, []uint64, bool) {
		a, an, lok := l(k, n)
		b, bn, rok := r(k, n)
		if !lok || !rok {
			return nil, nil, false
		}
		out, null := grow(&vbuf, n), grow(&nbuf, (n+63)/64)
		for w := range null {
			null[w] = an[w] | bn[w]
		}
		b = b[:len(a)]
		switch op {
		case OpAdd:
			for j, v := range a {
				out[j] = v + b[j]
			}
		case OpSub:
			for j, v := range a {
				out[j] = v - b[j]
			}
		case OpMul:
			for j, v := range a {
				out[j] = v * b[j]
			}
		case OpDiv:
			for j, v := range a {
				if out[j] = v / b[j]; b[j] == 0 {
					setBit(null, j)
				}
			}
		case OpMod:
			// Both of apply's arms truncate to int64 and take Go's %; they
			// differ in the result's type only.
			for j, v := range a {
				if ri := int64(b[j]); ri == 0 {
					setBit(null, j)
				} else {
					out[j] = float64(int64(v) % ri)
				}
			}
		case opBucket:
			for j, v := range a {
				if out[j] = math.Floor(v/b[j]) * b[j]; b[j] == 0 {
					setBit(null, j)
				}
			}
		}
		if typ == engine.TInt && (op == OpMul || op == opBucket) {
			for j := range out {
				out[j] += 0
			}
		}
		return out, null, exact(typ, out, null)
	}
}
