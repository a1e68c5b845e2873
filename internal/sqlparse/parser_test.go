package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicSelect(t *testing.T) {
	s, err := Parse("SELECT avg(temp) FROM readings")
	if err != nil {
		t.Fatal(err)
	}
	if s.From != "readings" || len(s.Items) != 1 || !s.Items[0].IsAgg() {
		t.Errorf("parsed: %+v", s)
	}
	if s.Items[0].Agg.Name != "avg" {
		t.Errorf("agg name: %q", s.Items[0].Agg.Name)
	}
	if s.Limit != -1 {
		t.Errorf("limit default: %d", s.Limit)
	}
}

func TestParseFullQuery(t *testing.T) {
	sql := `SELECT day, sum(amount) AS total, count(*) AS n
	        FROM donations
	        WHERE candidate = 'McCain' AND amount > 0
	        GROUP BY day
	        HAVING total > 100
	        ORDER BY day DESC, total
	        LIMIT 10`
	s, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 3 {
		t.Fatalf("items: %d", len(s.Items))
	}
	if s.Items[0].IsAgg() || !s.Items[1].IsAgg() || !s.Items[2].IsAgg() {
		t.Error("agg detection wrong")
	}
	if !s.Items[2].Agg.Star {
		t.Error("count(*) star missing")
	}
	if s.Items[1].Alias != "total" || s.Items[2].Alias != "n" {
		t.Errorf("aliases: %q %q", s.Items[1].Alias, s.Items[2].Alias)
	}
	if s.Where == nil || s.Having == nil {
		t.Error("where/having missing")
	}
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 2 {
		t.Errorf("groupby %d orderby %d", len(s.GroupBy), len(s.OrderBy))
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order directions wrong")
	}
	if s.Limit != 10 {
		t.Errorf("limit: %d", s.Limit)
	}
}

func TestParseImplicitAlias(t *testing.T) {
	s, err := Parse("SELECT day d, sum(amount) total FROM t GROUP BY day")
	if err != nil {
		t.Fatal(err)
	}
	if s.Items[0].Alias != "d" || s.Items[1].Alias != "total" {
		t.Errorf("implicit aliases: %q %q", s.Items[0].Alias, s.Items[1].Alias)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"a + b * 2",
		"(a + b) * 2",
		"a = 1 AND b != 2 OR NOT c < 3",
		"x IN (1, 2, 3)",
		"x NOT IN ('a', 'b')",
		"memo LIKE '%SPOUSE%'",
		"memo NOT LIKE 'REFUND%'",
		"v BETWEEN 2.3 AND 2.7",
		"v NOT BETWEEN 0 AND 1",
		"x IS NULL",
		"x IS NOT NULL",
		"bucket(epoch(ts), 1800)",
		"-x + 3",
		"a % 10 = 0",
	}
	for _, c := range cases {
		if _, err := ParseExpr(c); err != nil {
			t.Errorf("ParseExpr(%q): %v", c, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT sum(*) FROM t",        // * only for count
		"SELECT nosuchfunc(a) FROM t", // unknown function
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing garbage",
		"SELECT avg(a FROM t",
		"SELECT a FROM t WHERE s = 'unterminated",
		"SELECT a FROM t WHERE sum(*) > 1", // * only valid for count
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	s, err := Parse("SELECT a FROM t WHERE name = 'O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Where.String(), "O''Brien") {
		t.Errorf("escape rendering: %s", s.Where)
	}
}

// TestParseQuotedIdentEscapes: "" inside a quoted identifier is one ",
// and the printer doubles it back, so such a name round-trips.
func TestParseQuotedIdentEscapes(t *testing.T) {
	e, err := ParseExpr(`"a""b" + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Columns(nil); len(got) != 1 || got[0] != `a"b` {
		t.Fatalf("columns %q, want [a\"b]", got)
	}
	if s := e.String(); s != `("a""b" + 1)` {
		t.Errorf("printed %s", s)
	}
}

func TestParseComments(t *testing.T) {
	s, err := Parse("SELECT a FROM t -- trailing comment\nWHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Where == nil {
		t.Error("where lost after comment")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	e, err := ParseExpr("amount < -100.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "-100.5") {
		t.Errorf("negative literal: %s", e)
	}
}

// Round-trip: String() output re-parses to an identical String().
func TestRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT avg(temp) FROM readings",
		"SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day",
		"SELECT bucket(epoch(ts), 1800) AS w30, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w30",
		"SELECT a FROM t WHERE x IN (1, 2) AND memo LIKE '%X%' OR v BETWEEN 1 AND 2 LIMIT 5",
		"SELECT count(*) FROM t HAVING count(*) > 1",
		"SELECT a FROM t WHERE NOT (x = 1)",
	}
	for _, c := range cases {
		s1, err := Parse(c)
		if err != nil {
			t.Errorf("parse %q: %v", c, err)
			continue
		}
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse %q: %v", printed, err)
			continue
		}
		if s2.String() != printed {
			t.Errorf("round trip:\n  1: %s\n  2: %s", printed, s2.String())
		}
	}
}

// Property: random simple comparison predicates round-trip.
func TestExprRoundTripProperty(t *testing.T) {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	f := func(col uint8, opIdx uint8, val int32) bool {
		colName := string(rune('a' + col%4))
		sql := colName + " " + ops[int(opIdx)%len(ops)] + " " + itoa(int64(val))
		e1, err := ParseExpr(sql)
		if err != nil {
			return false
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			return false
		}
		return e1.String() == e2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestStmtClone(t *testing.T) {
	s := mustParse("SELECT a, sum(b) FROM t WHERE a > 0 GROUP BY a")
	c := s.Clone()
	c.Items = append(c.Items, SelectItem{})
	c.GroupBy = append(c.GroupBy, nil)
	if len(s.Items) != 2 || len(s.GroupBy) != 1 {
		t.Error("Clone shares slices with original")
	}
}

func TestAggItemsHelpers(t *testing.T) {
	s := mustParse("SELECT a, sum(b), avg(c) FROM t GROUP BY a")
	if !s.HasAggregates() {
		t.Error("HasAggregates false")
	}
	if s.Items[0].IsAgg() || !s.Items[1].IsAgg() || !s.Items[2].IsAgg() {
		t.Errorf("IsAgg: %+v", s.Items)
	}
	plain := mustParse("SELECT a FROM t")
	if plain.HasAggregates() {
		t.Error("plain query claims aggregates")
	}
}

// mustParse is Parse for statically known statements; it panics on error.
func mustParse(sql string) *SelectStmt {
	s, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return s
}
