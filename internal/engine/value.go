// Package engine implements the in-memory columnar storage substrate used
// by DBWipes: a NULL-aware typed value system, schemas, tables with stable
// row identifiers, a tiny database catalog, and CSV import/export.
//
// The engine plays the role PostgreSQL plays in the original DBWipes
// system: it stores the raw relations that aggregate queries run over and
// hands the executor (internal/exec) direct access to rows by identifier,
// which is what makes fine-grained provenance (lineage) cheap to capture.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the dynamic types a Value may carry.
type Type int

// The supported value types. TNull is the type of the untyped NULL;
// columns are declared with one of the other types and may additionally
// hold NULLs.
const (
	TNull Type = iota
	TBool
	TInt
	TFloat
	TString
	TTime
)

// String returns the lowercase SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "null"
	case TBool:
		return "bool"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TTime:
		return "time"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// IsNumeric reports whether values of the type can be coerced to float64
// for arithmetic and aggregation.
func (t Type) IsNumeric() bool {
	return t == TInt || t == TFloat || t == TBool || t == TTime
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// Values are small (no pointers beyond the string header) and are passed
// by value throughout the engine.
type Value struct {
	T Type
	I int64   // payload for TBool (0/1), TInt and TTime (unix seconds)
	F float64 // payload for TFloat
	S string  // payload for TString
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{T: TBool, I: i}
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{T: TInt, I: i} }

// NewFloat returns a float Value.
func NewFloat(f float64) Value { return Value{T: TFloat, F: f} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{T: TString, S: s} }

// NewTime returns a time Value; the payload is stored as unix seconds.
func NewTime(t time.Time) Value { return Value{T: TTime, I: t.Unix()} }

// NewTimeUnix returns a time Value from unix seconds.
func NewTimeUnix(sec int64) Value { return Value{T: TTime, I: sec} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// Bool returns the boolean payload. It is false for NULL and for zero
// numerics, true for non-zero numerics and non-empty strings do NOT count:
// only TBool and numeric types convert.
func (v Value) Bool() bool {
	switch v.T {
	case TBool, TInt, TTime:
		return v.I != 0
	case TFloat:
		return v.F != 0
	default:
		return false
	}
}

// Int returns the value coerced to int64 (truncating floats). NULL and
// strings yield 0.
func (v Value) Int() int64 {
	switch v.T {
	case TBool, TInt, TTime:
		return v.I
	case TFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// Float returns the value coerced to float64. NULL and non-numeric
// strings yield NaN so that accidental aggregation over strings is loud.
func (v Value) Float() float64 {
	switch v.T {
	case TBool, TInt, TTime:
		return float64(v.I)
	case TFloat:
		return v.F
	case TString:
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
			return f
		}
		return math.NaN()
	default:
		return math.NaN()
	}
}

// Time returns the time payload; the zero time for non-time values.
func (v Value) Time() time.Time {
	if v.T != TTime {
		return time.Time{}
	}
	return time.Unix(v.I, 0).UTC()
}

// Str returns the string payload if the value is a string, otherwise the
// rendered form.
func (v Value) Str() string {
	if v.T == TString {
		return v.S
	}
	return v.String()
}

// String renders the value for display and CSV export.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TTime:
		return v.Time().Format(time.RFC3339)
	default:
		return fmt.Sprintf("value(%d)", int(v.T))
	}
}

// SQL renders the value as a SQL literal (strings quoted and escaped).
// Float literals always carry a float marker: %g renders -0.0 as "-0"
// and 100.0 as "100", which re-parse as *integer* literals — and the
// parser's constant folding then drops the zero's sign, so the literal
// would not survive a parse → String → parse round trip.
func (v Value) SQL() string {
	switch v.T {
	case TString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case TTime:
		return "'" + v.Time().Format(time.RFC3339) + "'"
	case TFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEIN") { // leave Inf/NaN alone (unrepresentable anyway)
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// comparable numeric coercion: both are numeric (incl. bool/time).
func bothNumeric(a, b Value) bool { return a.T.IsNumeric() && b.T.IsNumeric() }

// Compare orders two values. It returns a negative number, zero, or a
// positive number as a sorts before, equal to, or after b, and an error
// when the two types are incomparable (e.g. string vs int). NULL compares
// equal to NULL and before everything else, matching ORDER BY semantics
// (NULLS FIRST); predicate evaluation handles NULL separately with
// three-valued logic.
func Compare(a, b Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	if bothNumeric(a, b) {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.T == TString && b.T == TString {
		return strings.Compare(a.S, b.S), nil
	}
	return 0, fmt.Errorf("engine: cannot compare %s with %s", a.T, b.T)
}

// Equal reports whether two values are equal under Compare semantics.
// Incomparable values are unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key returns a compact encoding of the value usable as a map key, with
// the property that Key(a) == Key(b) iff Equal(a, b) for same-kind values.
// Numerics of different types that compare equal encode identically.
func (v Value) Key() string {
	switch v.T {
	case TNull:
		return "\x00"
	case TBool, TInt, TTime, TFloat:
		f := v.Float()
		if f == 0 {
			// Canonicalize -0.0 to +0.0: Compare (IEEE ==) treats them as
			// equal, so Key must too, or -0 and +0 rows split into two
			// groups that Equal says are one (FormatFloat renders "-0").
			f = 0
		}
		return "n" + strconv.FormatFloat(f, 'g', -1, 64)
	case TString:
		return "s" + v.S
	default:
		return "?" + v.String()
	}
}

// ParseValue parses s into a value of type t. Empty strings parse to NULL
// for every type except TString.
func ParseValue(s string, t Type) (Value, error) {
	if s == "" && t != TString {
		return Null, nil
	}
	switch t {
	case TBool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Null, fmt.Errorf("engine: parse bool %q: %w", s, err)
		}
		return NewBool(b), nil
	case TInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("engine: parse int %q: %w", s, err)
		}
		return NewInt(i), nil
	case TFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Null, fmt.Errorf("engine: parse float %q: %w", s, err)
		}
		return NewFloat(f), nil
	case TString:
		return NewString(s), nil
	case TTime:
		ts := strings.TrimSpace(s)
		for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
			if tm, err := time.Parse(layout, ts); err == nil {
				return NewTime(tm), nil
			}
		}
		if sec, err := strconv.ParseInt(ts, 10, 64); err == nil {
			return NewTimeUnix(sec), nil
		}
		return Null, fmt.Errorf("engine: parse time %q", s)
	default:
		return Null, fmt.Errorf("engine: parse into %s", t)
	}
}

// inferType guesses the narrowest type able to represent every sample.
// Preference order: int, float, time, bool, string. Empty strings are
// ignored (treated as NULL).
func inferType(samples []string) Type {
	isInt, isFloat, isBool, isTime := true, true, true, true
	seen := false
	for _, s := range samples {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		seen = true
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			isFloat = false
		}
		if _, err := strconv.ParseBool(s); err != nil {
			isBool = false
		}
		if _, err := time.Parse(time.RFC3339, s); err != nil {
			if _, err := time.Parse("2006-01-02", s); err != nil {
				isTime = false
			}
		}
	}
	switch {
	case !seen:
		return TString
	case isBool && !isInt:
		return TBool
	case isInt:
		return TInt
	case isFloat:
		return TFloat
	case isTime:
		return TTime
	default:
		return TString
	}
}
