package engine

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		t    Type
		f    float64
		s    string
		b    bool
		null bool
	}{
		{Null, TNull, math.NaN(), "NULL", false, true},
		{NewBool(true), TBool, 1, "true", true, false},
		{NewBool(false), TBool, 0, "false", false, false},
		{NewInt(-42), TInt, -42, "-42", true, false},
		{NewFloat(2.5), TFloat, 2.5, "2.5", true, false},
		{NewString("hi"), TString, math.NaN(), "hi", false, false},
		{NewTimeUnix(1000), TTime, 1000, "1970-01-01T00:16:40Z", true, false},
	}
	for _, c := range cases {
		if c.v.T != c.t {
			t.Errorf("%v: type %v, want %v", c.v, c.v.T, c.t)
		}
		if c.v.IsNull() != c.null {
			t.Errorf("%v: IsNull %v", c.v, c.v.IsNull())
		}
		got := c.v.Float()
		if math.IsNaN(c.f) != math.IsNaN(got) || (!math.IsNaN(c.f) && got != c.f) {
			t.Errorf("%v: Float %v, want %v", c.v, got, c.f)
		}
		if c.v.String() != c.s {
			t.Errorf("%v: String %q, want %q", c.v, c.v.String(), c.s)
		}
		if c.v.Bool() != c.b {
			t.Errorf("%v: Bool %v, want %v", c.v, c.v.Bool(), c.b)
		}
	}
}

func TestValueFloatParsesNumericStrings(t *testing.T) {
	if got := NewString(" 3.5 ").Float(); got != 3.5 {
		t.Errorf("Float of ' 3.5 ' = %v", got)
	}
	if got := NewString("abc").Float(); !math.IsNaN(got) {
		t.Errorf("Float of 'abc' = %v, want NaN", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
		err  bool
	}{
		{NewInt(1), NewInt(2), -1, false},
		{NewInt(2), NewInt(2), 0, false},
		{NewFloat(2.5), NewInt(2), 1, false},
		{NewBool(true), NewInt(1), 0, false},
		{NewString("a"), NewString("b"), -1, false},
		{NewString("b"), NewString("b"), 0, false},
		{Null, Null, 0, false},
		{Null, NewInt(5), -1, false},
		{NewInt(5), Null, 1, false},
		{NewString("a"), NewInt(1), 0, true},
		{NewTimeUnix(10), NewTimeUnix(20), -1, false},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if (err != nil) != c.err {
			t.Errorf("Compare(%v,%v) err=%v, want err=%v", c.a, c.b, err, c.err)
			continue
		}
		if !c.err && sign(got) != c.want {
			t.Errorf("Compare(%v,%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Property: Compare is antisymmetric for ints.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Compare(NewInt(a), NewInt(b))
		y, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && sign(x) == -sign(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key equality tracks Equal for numerics across types.
func TestKeyMatchesEqual(t *testing.T) {
	f := func(a int64) bool {
		vi, vf := NewInt(a), NewFloat(float64(a))
		return Equal(vi, vf) == (vi.Key() == vf.Key())
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ParseValue(String()) round-trips ints and floats.
func TestParseValueRoundTrip(t *testing.T) {
	fInt := func(a int64) bool {
		v, err := ParseValue(NewInt(a).String(), TInt)
		return err == nil && v.I == a
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Errorf("int round trip: %v", err)
	}
	fFloat := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		v, err := ParseValue(NewFloat(a).String(), TFloat)
		return err == nil && v.F == a
	}
	if err := quick.Check(fFloat, nil); err != nil {
		t.Errorf("float round trip: %v", err)
	}
}

func TestParseValue(t *testing.T) {
	if v, err := ParseValue("", TInt); err != nil || !v.IsNull() {
		t.Errorf("empty int: %v %v", v, err)
	}
	if v, err := ParseValue("", TString); err != nil || v.S != "" {
		t.Errorf("empty string: %v %v", v, err)
	}
	if _, err := ParseValue("xyz", TInt); err == nil {
		t.Error("expected error parsing xyz as int")
	}
	if v, err := ParseValue("2004-02-28", TTime); err != nil || v.Time().Day() != 28 {
		t.Errorf("date parse: %v %v", v, err)
	}
	if v, err := ParseValue("true", TBool); err != nil || !v.Bool() {
		t.Errorf("bool parse: %v %v", v, err)
	}
}

func TestInferType(t *testing.T) {
	cases := []struct {
		samples []string
		want    Type
	}{
		{[]string{"1", "2", "3"}, TInt},
		{[]string{"1.5", "2"}, TFloat},
		{[]string{"true", "false"}, TBool},
		{[]string{"2004-02-28", "2004-03-01"}, TTime},
		{[]string{"abc", "1"}, TString},
		{[]string{"", ""}, TString},
		{[]string{"1", ""}, TInt},
	}
	for _, c := range cases {
		if got := inferType(c.samples); got != c.want {
			t.Errorf("inferType(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestSQLQuoting(t *testing.T) {
	if got := NewString("O'Brien").SQL(); got != "'O''Brien'" {
		t.Errorf("SQL quoting: %q", got)
	}
	if got := NewInt(7).SQL(); got != "7" {
		t.Errorf("int SQL: %q", got)
	}
}

func TestTimeValue(t *testing.T) {
	now := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	v := NewTime(now)
	if !v.Time().Equal(now) {
		t.Errorf("time round trip: %v != %v", v.Time(), now)
	}
}
