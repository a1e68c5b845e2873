package expr_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sqlparse"
)

var kernelSchema = engine.Schema{
	{Name: "i", Type: engine.TInt},
	{Name: "j", Type: engine.TInt},
	{Name: "f", Type: engine.TFloat},
	{Name: "t", Type: engine.TTime},
	{Name: "b", Type: engine.TBool},
	{Name: "s", Type: engine.TString},
}

// kernelRows is the block every kernel parity check evaluates: the
// caller's row first, then the cells a float evaluation gets wrong if it
// guesses — NULLs, NaN, -0.0, ±Inf, ints at and past ±2^53, times before
// 1970 and a zero in every numeric column.
func kernelRows(first []engine.Value) [][]engine.Value {
	const big = int64(1) << 53
	n := engine.Null
	return [][]engine.Value{
		first,
		{n, n, n, n, n, n},
		{engine.NewInt(0), engine.NewInt(-1), engine.NewFloat(math.NaN()), engine.NewTimeUnix(0), engine.NewBool(false), engine.NewString("")},
		{engine.NewInt(-1), engine.NewInt(3), engine.NewFloat(math.Copysign(0, -1)), engine.NewTimeUnix(-3600), engine.NewBool(true), n},
		{engine.NewInt(big), engine.NewInt(2), engine.NewFloat(math.Inf(1)), engine.NewTimeUnix(big + 1), engine.NewBool(true), engine.NewString("x")},
		{engine.NewInt(-big - 1), engine.NewInt(-2), engine.NewFloat(math.Inf(-1)), engine.NewTimeUnix(-big), n, engine.NewString("y")},
		{engine.NewInt(big - 1), engine.NewInt(0), engine.NewFloat(0.5), engine.NewTimeUnix(1800), engine.NewBool(false), n},
		{n, engine.NewInt(7), engine.NewFloat(-2.75), n, n, n},
		{engine.NewInt(-7), n, n, engine.NewTimeUnix(86399), engine.NewBool(true), n},
	}
}

// kernelChunks types rows the way the engine types a segment: float64
// coercions (NaN at NULL) and NULL words; string columns stay empty.
func kernelChunks(rows [][]engine.Value) (vals [][]float64, null [][]uint64) {
	vals, null = make([][]float64, len(kernelSchema)), make([][]uint64, len(kernelSchema))
	for c, col := range kernelSchema {
		if !col.Type.IsNumeric() {
			continue
		}
		vals[c], null[c] = make([]float64, len(rows)), make([]uint64, (len(rows)+63)/64)
		for r, row := range rows {
			if vals[c][r] = row[c].Float(); row[c].IsNull() {
				null[c][r>>6] |= 1 << (uint(r) & 63)
			}
		}
	}
	return vals, null
}

// checkKernelParity evaluates e through the kernel — the whole block,
// then each row alone, so one declined row does not hide the others — and
// through the interpreter, and reports how many selections the kernel
// answered. An answered selection must agree per row: NULL-ness, and the
// value's bits (any NaN equals any NaN: the slot folds them, and which
// operand's payload survives an addition is the compiler's choice). The
// kernel must have declined wherever the interpreter errs, yields a
// non-number, or computes an integer past ±2^53.
func checkKernelParity(t *testing.T, e expr.Expr, k *expr.FloatKernel, rows [][]engine.Value) (answered int) {
	t.Helper()
	vals, null := kernelChunks(rows)
	kv, kn := make([][]float64, len(k.Cols)), make([][]uint64, len(k.Cols))
	for i, c := range k.Cols {
		kv[i], kn[i] = vals[c], null[c]
	}
	all := make([]int32, len(rows))
	sels := [][]int32{all}
	for r := range rows {
		all[r] = int32(r)
		sels = append(sels, []int32{int32(r)})
	}
	for _, sel := range sels {
		out, outNull, ok := k.Eval(kv, kn, sel)
		if !ok {
			continue
		}
		answered++
		for j, r := range sel {
			want, err := e.Eval(rows[r])
			isNull := outNull[j>>6]&(1<<(uint(j)&63)) != 0
			switch {
			case err != nil:
				t.Fatalf("%s row %d: interpreter errs (%v), kernel answered %v", e, r, err, out[j])
			case want.IsNull() != isNull:
				t.Fatalf("%s row %d: interpreter %s, kernel NULL=%v (%v)", e, r, want, isNull, out[j])
			case isNull:
				continue
			case !want.T.IsNumeric():
				t.Fatalf("%s row %d: interpreter yields %s %s, kernel answered %v", e, r, want.T, want, out[j])
			case want.T != engine.TFloat && (want.I <= -1<<53 || want.I >= 1<<53):
				t.Fatalf("%s row %d: interpreter computes the integer %d, kernel guessed %v", e, r, want.I, out[j])
			}
			wf := want.Float()
			if math.Float64bits(wf) != math.Float64bits(out[j]) && !(wf != wf && out[j] != out[j]) {
				t.Fatalf("%s row %d: interpreter %s (%#x), kernel %v (%#x)", e, r, want, math.Float64bits(wf), out[j], math.Float64bits(out[j]))
			}
		}
	}
	return answered
}

func parseKernelExpr(t *testing.T, text string) expr.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	if err := e.Resolve(kernelSchema); err != nil {
		t.Fatalf("resolve %q: %v", text, err)
	}
	return e
}

// TestFloatKernelShapes pins what compiles (and answers at least the
// all-small rows), what is refused at compile time, and that the answers
// agree with the interpreter on the edge-case block.
func TestFloatKernelShapes(t *testing.T) {
	small := []engine.Value{engine.NewInt(5), engine.NewInt(-3), engine.NewFloat(1.25), engine.NewTimeUnix(4000), engine.NewBool(true), engine.NewString("a")}
	for _, text := range []string{
		"bucket(epoch(t), 1800)", "bucket(i, 3)", "bucket(i, -3)", "bucket(f, 0.25)", "bucket(i, 0)", "bucket(i, j)", "bucket(t, 60)",
		"i + j", "i - j", "i * j", "i / j", "i % j", "f % 0.5", "f % j", "i % 0", "f / 0", "-i", "-f", "-t", "-(i * 0)", "-b",
		"i * 4503599627370496", "i + f", "t + i", "b * 2", "1 + 2", "i", "f", "3.5",
		"floor(f)", "ceil(f / 2)", "round(f * 3)", "sqrt(i)", "exp(j)", "ln(i)", "log10(f)", "floor(bucket(epoch(t), 1800) / 3600)",
	} {
		e := parseKernelExpr(t, text)
		k, ok := expr.CompileFloat(e, kernelSchema)
		if !ok {
			t.Errorf("%s: refused", text)
			continue
		}
		if checkKernelParity(t, e, k, kernelRows(small)) == 0 {
			t.Errorf("%s: the kernel answered no selection at all", text)
		}
	}
	for _, text := range []string{
		"lower(s)", "s", "epoch(i)", "epoch(f)", "i > 3", "i = j", "coalesce(i, 0)", "abs(i)", "i + s", "bucket(s, 2)",
		"i + 9007199254740992", "i IS NULL", "NOT b", "year(t)", "length(s) + 1", "i + NULL", "epoch(t, t)",
	} {
		e, err := sqlparse.ParseExpr(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		_ = e.Resolve(kernelSchema) // arity errors are refusals too
		if _, ok := expr.CompileFloat(e, kernelSchema); ok {
			t.Errorf("%s: compiled; the kernel cannot prove it equal to the interpreter", text)
		}
	}
	if _, ok := expr.CompileFloat(expr.NewCol("i"), kernelSchema); ok {
		t.Error("an unresolved column compiled")
	}
}

// TestFloatKernelDeclines pins the run-time refusals: a block holding an
// int-typed cell or intermediate at or past ±2^53 is declined whole, and
// the same kernel answers the next block.
func TestFloatKernelDeclines(t *testing.T) {
	const big = int64(1) << 53
	row := func(i, j int64) []engine.Value {
		return []engine.Value{engine.NewInt(i), engine.NewInt(j), engine.NewFloat(0), engine.NewTimeUnix(i), engine.Null, engine.Null}
	}
	for _, tc := range []struct {
		text    string
		i, j    int64
		decline bool
	}{
		{"i + 1", big - 2, 0, false},
		{"i + 1", big - 1, 0, true}, // the sum reaches 2^53
		{"i + 1", big, 0, true},     // the leaf already rounded
		{"i - 1", -big + 1, 0, true},
		{"i * j", 1 << 30, 1 << 23, true},
		{"i * j", 1 << 30, 1 << 22, false},
		{"bucket(i, 2)", big + 1, 0, true},
		{"epoch(t) + 0", -big, 0, true},
		{"i / 2", big + 2, 0, true}, // float arithmetic would agree, but the cell has an exact chunk
		{"f + 1", big, 0, false},    // i is not referenced
	} {
		e := parseKernelExpr(t, tc.text)
		k, ok := expr.CompileFloat(e, kernelSchema)
		if !ok {
			t.Fatalf("%s: refused", tc.text)
		}
		rows := [][]engine.Value{row(1, 1), row(tc.i, tc.j), row(2, 2)}
		vals, null := kernelChunks(rows)
		kv, kn := make([][]float64, len(k.Cols)), make([][]uint64, len(k.Cols))
		for i, c := range k.Cols {
			kv[i], kn[i] = vals[c], null[c]
		}
		if _, _, ok := k.Eval(kv, kn, []int32{0, 1, 2}); ok == tc.decline {
			t.Errorf("%s with i=%d j=%d: answered=%v, want declined=%v", tc.text, tc.i, tc.j, ok, tc.decline)
		}
		if _, _, ok := k.Eval(kv, kn, []int32{0, 2}); !ok {
			t.Errorf("%s: declined the rows beside the big one", tc.text)
		}
		checkKernelParity(t, e, k, rows)
	}
}

// TestMonotoneKernels holds FloatKernel.Monotone to its meaning: a
// kernel marked Monotone, evaluated over ascending cells of its one
// column — small ones or the edge cells (±0, ±Inf, ±MaxFloat64, the
// least subnormal, ints and times around ±2^53) — yields non-NULL,
// non-decreasing keys in every block it answers. A key that is not
// non-decreasing in one column is not marked.
func TestMonotoneKernels(t *testing.T) {
	const big = int64(1) << 53
	edgeInts := []int64{-big - 1, -big, -big + 1, -7, -1, 0, 1, 3, 1800, big - 1, big, big + 1}
	edgeFloats := []float64{math.Inf(-1), -math.MaxFloat64, -2.5, -0.25, math.Copysign(0, -1), 0, 5e-324, 0.25, 1.75, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(7))
	for _, text := range []string{
		"i", "f", "t", "epoch(t)", "bucket(i, 3)", "bucket(f, 2)", "bucket(epoch(t), 1800)",
		"bucket(bucket(i, 3), 2)", "bucket(f, 0.25)", "bucket(f, 5e-324)", "bucket(t, 60)",
	} {
		e := parseKernelExpr(t, text)
		k, ok := expr.CompileFloat(e, kernelSchema)
		if !ok || !k.Monotone || len(k.Cols) != 1 {
			t.Fatalf("%s: compiled %v, Monotone %v, want a monotone kernel over one column", text, ok, ok && k.Monotone)
		}
		col, answered := k.Cols[0], 0
		for range 300 {
			cells, edges := make([]float64, 2+rng.Intn(40)), []float64{0, 0.05, 0.25}[rng.Intn(3)]
			for j := range cells {
				switch edge := rng.Float64() < edges; {
				case col == 2 && edge:
					cells[j] = edgeFloats[rng.Intn(len(edgeFloats))]
				case col == 2:
					cells[j] = float64(rng.Intn(64)-32) * 0.25
				case edge:
					cells[j] = float64(edgeInts[rng.Intn(len(edgeInts))])
				default:
					cells[j] = float64(rng.Intn(20000) - 10000)
				}
			}
			slices.Sort(cells)
			rows := make([][]engine.Value, len(cells))
			sel := make([]int32, len(cells))
			for j, v := range cells {
				rows[j], sel[j] = make([]engine.Value, len(kernelSchema)), int32(j)
				rows[j][col] = map[int]engine.Value{0: engine.NewInt(int64(v)), 2: engine.NewFloat(v), 3: engine.NewTimeUnix(int64(v))}[col]
			}
			vals, null := kernelChunks(rows)
			out, outNull, ok := k.Eval([][]float64{vals[col]}, [][]uint64{null[col]}, sel)
			if !ok {
				continue
			}
			answered++
			for j := range out {
				if outNull[j>>6]&(1<<(uint(j)&63)) != 0 || j > 0 && !(out[j] >= out[j-1]) {
					t.Fatalf("%s over ascending %v: keys %v are not non-NULL and non-decreasing", text, cells, out)
				}
			}
		}
		if answered < 120 {
			t.Errorf("%s: answered %d of 300 blocks", text, answered)
		}
	}
	for _, text := range []string{
		"-i", "-f", "i * 2 - j", "sqrt(f)", "bucket(i, 0)", "bucket(f, -2)", "bucket(f, 0 - 2)", "bucket(i, j)",
		"bucket(f, 0.0)", "i + 1", "floor(f)", "bucket(-i, 3)", "epoch(t) + 0",
	} {
		e := parseKernelExpr(t, text)
		if k, ok := expr.CompileFloat(e, kernelSchema); !ok || k.Monotone {
			t.Errorf("%s: compiled %v, Monotone %v; want a kernel not marked", text, ok, ok && k.Monotone)
		}
	}
}

// FuzzKeyKernelParity pins the typed key kernel to the interpreter: for
// any expression the parser accepts, the schema resolves and CompileFloat
// lowers, every selection the kernel answers agrees with Eval row by row
// (checkKernelParity) — value bits, NULL-ness, and "the interpreter errs
// or leaves float64's exact range ⇒ the kernel declined". The fuzzer
// drives the expression text and one row (nulls masks its cells to NULL);
// kernelRows adds the fixed edge cases to every block. The checked-in
// corpus (testdata/fuzz/FuzzKeyKernelParity) names the cases a guess
// would get wrong: ints at and past ±2^53, -0.0, NaN payloads, NULL-heavy
// rows, zero, negative and fractional bucket widths, / 0, % 0, % 0.5,
// times before 1970, epoch of a non-time column.
func FuzzKeyKernelParity(f *testing.F) {
	f.Add("bucket(epoch(t), 1800)", int64(1), int64(2), int64(1078000000), uint64(0), true, uint8(0))
	f.Add("i * j - f / 2", int64(-4), int64(9), int64(0), math.Float64bits(0.75), false, uint8(0b10))
	f.Fuzz(func(t *testing.T, text string, iv, jv, tv int64, fbits uint64, bv bool, nulls uint8) {
		e, err := sqlparse.ParseExpr(text)
		if err != nil || e.Resolve(kernelSchema) != nil {
			return
		}
		k, ok := expr.CompileFloat(e, kernelSchema)
		if !ok {
			return
		}
		first := []engine.Value{engine.NewInt(iv), engine.NewInt(jv), engine.NewFloat(math.Float64frombits(fbits)),
			engine.NewTimeUnix(tv), engine.NewBool(bv), engine.NewString(text)}
		for c := range first {
			if nulls&(1<<uint(c)) != 0 {
				first[c] = engine.Null
			}
		}
		checkKernelParity(t, e, k, kernelRows(first))
	})
}
