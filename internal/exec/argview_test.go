package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// boxedArgView is the oracle of growView: the argument expression
// evaluated through the boxed interpreter on every source row.
func boxedArgView(t *testing.T, res *Result, ord int) (vals []float64, null []bool) {
	t.Helper()
	src := res.Source
	row := make([]engine.Value, src.NumCols())
	for r := 0; r < src.NumRows(); r++ {
		f, isNull := 1.0, false
		if arg := res.aggArgs[ord]; arg != nil {
			for c := range row {
				row[c] = src.Value(r, c)
			}
			v, err := arg.Eval(row)
			if err != nil {
				t.Fatal(err)
			}
			if isNull = v.IsNull(); isNull {
				f = math.NaN()
			} else {
				f = v.Float()
			}
		}
		vals, null = append(vals, f), append(null, isNull)
	}
	return vals, null
}

func checkArgViews(t *testing.T, label string, res *Result) {
	t.Helper()
	for ord := range res.aggArgs {
		av, err := mustProv(res).ArgView(ord)
		if err != nil {
			t.Fatalf("%s: aggregate %d: %v", label, ord, err)
		}
		vals, null := boxedArgView(t, res, ord)
		if a := argSource(res.Source.Schema(), res.aggCall(ord)); a.kind == argDict {
			// Dictionary codes stand in for the strings: the view must be
			// one-to-one with them, whatever the codes are.
			code, str := make(map[string]float64), make(map[float64]string)
			for r := range vals {
				vals[r] = av.Vals[r]
				s := res.Source.Value(r, a.col)
				if s.IsNull() {
					continue
				}
				if c, ok := code[s.S]; ok && c != av.Vals[r] {
					t.Fatalf("%s: aggregate %d row %d: %q has codes %v and %v", label, ord, r, s.S, c, av.Vals[r])
				}
				if o, ok := str[av.Vals[r]]; ok && o != s.S {
					t.Fatalf("%s: aggregate %d row %d: code %v is %q and %q", label, ord, r, av.Vals[r], o, s.S)
				}
				code[s.S], str[av.Vals[r]] = av.Vals[r], s.S
			}
			if len(code) < 2 {
				t.Fatalf("%s: aggregate %d: %d distinct codes, fixture has more strings", label, ord, len(code))
			}
		}
		if len(av.Vals) != len(vals) || av.Null.Len() != len(vals) {
			t.Fatalf("%s: aggregate %d: view covers %d rows (%d NULL bits), want %d", label, ord, len(av.Vals), av.Null.Len(), len(vals))
		}
		for r := range vals {
			if math.Float64bits(av.Vals[r]) != math.Float64bits(vals[r]) && !(math.IsNaN(av.Vals[r]) && math.IsNaN(vals[r])) {
				t.Fatalf("%s: aggregate %d row %d: %v, want %v", label, ord, r, av.Vals[r], vals[r])
			}
			if av.Null.Get(r) != null[r] {
				t.Fatalf("%s: aggregate %d row %d: NULL bit %v, want %v", label, ord, r, av.Null.Get(r), null[r])
			}
		}
	}
}

// TestArgViewMatchesBoxedEval pins growView — a fresh view (ArgView) and
// the one an advanced result's first read extends from its ancestor's —
// to the boxed evaluation, for a bare float column, bare int and time
// columns, a bare string column (the evaluator arm; its dictionary codes
// under count(DISTINCT)), computed arguments and count(*), on a resident
// table and on the same rows served out of core through a pool smaller
// than one chunk.
func TestArgViewMatchesBoxedEval(t *testing.T) {
	stmt := mustParse(t, "SELECT j, avg(f) AS a, sum(i) AS b, max(t) AS c, count(s) AS d, "+
		"sum(f + j) AS e, avg(f * 2 - i) AS g, count(*) AS n, count(DISTINCT s) AS h FROM p GROUP BY j")
	rng := rand.New(rand.NewSource(23))
	fs := store.NewMemFS()
	buildOOCTable(t, fs, rng, 7)
	resident := residentReopen(t, fs)
	st, faulted := reopen(t, fs, 512)
	defer st.Close()

	for name, tbl := range map[string]*engine.Table{"resident": resident, "out-of-core": faulted} {
		res, err := RunOn(tbl, stmt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkArgViews(t, name, res)

		// The advanced result's first read extends the views by the
		// appended suffix through the same fill, across a segment boundary.
		grown, err := tbl.AppendBatch(oocBatch(rng, 100))
		if err != nil {
			t.Fatal(err)
		}
		adv, err := Advance(res, grown)
		if err != nil {
			t.Fatalf("%s: advance: %v", name, err)
		}
		for ord, av := range mustProv(adv).views {
			if av == nil {
				t.Fatalf("%s: the first read did not extend argument view %d of %d", name, ord, len(res.aggArgs))
			}
		}
		checkArgViews(t, name+" advanced", adv)
	}
	if pinned := st.PoolPinned(); pinned != 0 {
		t.Fatalf("%d chunks pinned after the views were built", pinned)
	}
}
