package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

// FuzzParseRoundTrip pins the parser/printer pair: any statement the
// parser accepts must render to SQL that parses again, and the
// re-parsed statement must render identically (String is a fixpoint
// after one round). A failure here means the printer emits SQL the
// parser rejects or reinterprets — exactly the class of bug that
// silently corrupts the cleaned SQL, statement cloning (cloneGroupExpr-style
// re-parsing), and the server's session keys, all of which round-trip
// statements through text.
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT count(*) AS n FROM t",
		"SELECT s, sum(f) AS total FROM p WHERE f >= 1 GROUP BY s",
		"SELECT bucket(epoch(ts), 1800) AS w, avg(temperature) AS a, stddev(temperature) AS sd FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w",
		"SELECT i, count(DISTINCT s) AS u FROM p GROUP BY i HAVING u > 2 ORDER BY u DESC LIMIT 5",
		"SELECT f FROM p WHERE (i BETWEEN -3 AND 4) AND s IN ('a', 'b') OR NOT (j IS NULL)",
		"SELECT f FROM p WHERE s LIKE 'a%' AND f <> -0.25",
		"SELECT lower(s) AS ls, median(f + j) AS m FROM p GROUP BY lower(s)",
		"SELECT * FROM t LIMIT 10",
		"SELECT a FROM t WHERE ts > '2004-02-28T07:35:42Z'",
		"select \"quoted col\" from t where x = 'it''s'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return // rejecting garbage is fine; crashing or looping is not
		}
		s1 := stmt.String()
		stmt2, err := Parse(s1)
		if err != nil {
			t.Fatalf("printer emitted unparseable SQL\n input: %q\noutput: %q\n error: %v", sql, s1, err)
		}
		s2 := stmt2.String()
		if s1 != s2 {
			t.Fatalf("String not a fixpoint after one parse\n input: %q\n first: %q\nsecond: %q", sql, s1, s2)
		}
	})
}

// FuzzParseExprRoundTrip is the expression-level counterpart (the
// surface ExamplesWhere and the error-metric forms feed user text
// into).
func FuzzParseExprRoundTrip(f *testing.F) {
	seeds := []string{
		"a + b * 2",
		"temperature > 100",
		"f <> -0.25 AND s IN ('a', '')",
		"NOT (x IS NOT NULL) OR y BETWEEN 1 AND 2",
		"bucket(epoch(ts), 1800)",
		"-(-f)",
		"s LIKE '%_x'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		e, err := ParseExpr(in)
		if err != nil {
			return
		}
		s1 := e.String()
		e2, err := ParseExpr(s1)
		if err != nil {
			t.Fatalf("expression printer emitted unparseable text\n input: %q\noutput: %q\n error: %v", in, s1, err)
		}
		if s2 := e2.String(); s1 != s2 {
			t.Fatalf("expression String not a fixpoint\n input: %q\n first: %q\nsecond: %q", in, s1, s2)
		}
		// A fixpoint can still be a different expression: "-(a IS NULL)"
		// printed bare re-parses as (-a) IS NULL.
		if !expr.Equal(e, e2) {
			t.Fatalf("expression printer changed the tree\n input: %q\noutput: %q", in, s1)
		}
		// Guard against printers that blow up the term (each round-trip
		// adding parens would OOM under the fuzzer eventually).
		if len(s1) > 4*len(in)+64 {
			t.Fatalf("printer inflated %q (%d bytes) to %d bytes", in, len(in), len(s1))
		}
	})
}

// TestFuzzSeedsRoundTrip runs every checked-in seed through the fuzz
// bodies so `go test` (without -fuzz) still exercises them — the fuzz
// smoke in CI only runs one target at a time.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, sql := range []string{
		"SELECT s, sum(f) AS total FROM p WHERE f >= 1 GROUP BY s",
		"SELECT i, count(DISTINCT s) AS u FROM p GROUP BY i HAVING u > 2 ORDER BY u DESC LIMIT 5",
		"SELECT f FROM p WHERE (i BETWEEN -3 AND 4) AND s IN ('a', 'b') OR NOT (j IS NULL)",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("seed %q: %v", sql, err)
		}
		s1 := stmt.String()
		stmt2, err := Parse(s1)
		if err != nil {
			t.Fatalf("seed %q: reparse of %q: %v", sql, s1, err)
		}
		if s2 := stmt2.String(); !strings.EqualFold(s1, s2) {
			t.Fatalf("seed %q: %q vs %q", sql, s1, s2)
		}
	}
}
