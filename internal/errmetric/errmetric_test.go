package errmetric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiff(t *testing.T) {
	m := Diff{C: 70}
	if got := Eval(m, []float64{65, 80, 120}); got != 50 {
		t.Errorf("diff: %v", got)
	}
	if got := Eval(m, []float64{60, 65}); got != 0 {
		t.Errorf("diff error-free: %v", got)
	}
	if m.Combine() != Max {
		t.Error("diff combines by max")
	}
}

func TestTooHigh(t *testing.T) {
	m := TooHigh{C: 70}
	if got := Eval(m, []float64{65, 80, 120}); got != 60 {
		t.Errorf("toohigh: %v", got) // (80-70)+(120-70)
	}
	if got := Eval(m, []float64{70, 60}); got != 0 {
		t.Errorf("toohigh clean: %v", got)
	}
}

func TestTooLow(t *testing.T) {
	m := TooLow{C: 0}
	if got := Eval(m, []float64{-5, 3, -10}); got != 15 {
		t.Errorf("toolow: %v", got)
	}
}

func TestNotEqual(t *testing.T) {
	m := NotEqual{C: 10}
	if got := Eval(m, []float64{8, 12}); got != 4 {
		t.Errorf("notequal: %v", got)
	}
}

func TestZScore(t *testing.T) {
	m := ZScore{Mean: 0, Std: 1, K: 2}
	if got := Eval(m, []float64{0, 1, 3}); math.Abs(got-1) > 1e-9 {
		t.Errorf("zscore: %v", got) // only 3 exceeds k=2 by 1
	}
	zero := ZScore{Mean: 0, Std: 0, K: 2}
	if Eval(zero, []float64{100}) != 0 {
		t.Error("zero-std zscore should be 0")
	}
}

func TestNaNIgnored(t *testing.T) {
	m := TooHigh{C: 0}
	if got := Eval(m, []float64{math.NaN(), 5}); got != 5 {
		t.Errorf("NaN handling: %v", got)
	}
}

// TestTermContract: every term is at least 0 with a clear sign bit, and
// exactly 0 for a NULL (NaN) aggregate — what makes Eval's error-free
// terms exact +0s, under either combine.
func TestTermContract(t *testing.T) {
	metrics := []Metric{Diff{C: 3}, TooHigh{C: 3}, TooLow{C: 3}, NotEqual{C: 3}, ZScore{Mean: 0, Std: 2, K: 1}, ZScore{Std: 0, K: 1}}
	for _, m := range metrics {
		if got := m.Term(math.NaN()); math.Float64bits(got) != 0 {
			t.Errorf("%s: Term(NaN) = %g, want +0", m, got)
		}
		for _, v := range []float64{math.Inf(-1), -5, math.Copysign(0, -1), 0, 3, 3.5, 100, math.Inf(1)} {
			if got := m.Term(v); !(got >= 0) || math.Signbit(got) {
				t.Errorf("%s: Term(%g) = %g, want ≥ +0", m, v, got)
			}
		}
	}
	if got := Eval(Diff{C: 0}, []float64{math.NaN(), 5, math.NaN(), 2}); got != 5 {
		t.Errorf("diff over NULLs: %v", got)
	}
}

// Property: every metric is non-negative, and zero on empty input.
func TestMetricsNonNegative(t *testing.T) {
	metrics := []Metric{Diff{C: 3}, TooHigh{C: 3}, TooLow{C: 3}, NotEqual{C: 3}, ZScore{Mean: 0, Std: 2, K: 1}}
	f := func(raw []int8) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		for _, m := range metrics {
			if Eval(m, vals) < 0 {
				return false
			}
			if Eval(m, nil) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: removing the worst value never increases TooHigh.
func TestTooHighMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		worst := 0
		for i, r := range raw {
			vals[i] = float64(r)
			if vals[i] > vals[worst] {
				worst = i
			}
		}
		m := TooHigh{C: 0}
		before := Eval(m, vals)
		after := Eval(m, append(append([]float64(nil), vals[:worst]...), vals[worst+1:]...))
		return after <= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRegistry(t *testing.T) {
	for _, spec := range Specs() {
		params := map[string]float64{}
		for _, p := range spec.Params {
			params[p] = 1
		}
		m, err := New(spec.Name, params)
		if err != nil {
			t.Errorf("New(%s): %v", spec.Name, err)
			continue
		}
		if m.Name() != spec.Name {
			t.Errorf("name mismatch: %s vs %s", m.Name(), spec.Name)
		}
	}
	if _, err := New("bogus", nil); err == nil {
		t.Error("bogus metric accepted")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		name string
		fail bool
	}{
		{"toolow(c=0)", "toolow", false},
		{"toohigh(c=70)", "toohigh", false},
		{"diff", "diff", false},
		{"zscore(mean=5, std=2, k=3)", "zscore", false},
		{"toolow(c=x)", "", true},
		{"toolow(c", "", true},
		{"nosuch(c=1)", "", true},
	}
	for _, c := range cases {
		m, err := ParseSpec(c.in)
		if c.fail {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("ParseSpec(%q) name %q", c.in, m.Name())
		}
	}
	m, _ := ParseSpec("toohigh(c=70)")
	if m.(TooHigh).C != 70 {
		t.Error("param not applied")
	}
}

func TestSuggestReference(t *testing.T) {
	if got := SuggestReference([]float64{1, 100, 2}); got != 2 {
		t.Errorf("median odd: %v", got)
	}
	if got := SuggestReference([]float64{1, 2, 3, 100}); got != 2.5 {
		t.Errorf("median even: %v", got)
	}
	if got := SuggestReference(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := SuggestReference([]float64{math.NaN(), 5}); got != 5 {
		t.Errorf("NaN skip: %v", got)
	}
}
