package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// AggCall is an aggregate invocation in the select list, e.g.
// avg(temperature), count(*), or count(DISTINCT city).
type AggCall struct {
	Name     string    // lowercase aggregate name
	Arg      expr.Expr // nil for count(*)
	Star     bool      // count(*)
	Distinct bool      // count(DISTINCT x) etc.
}

// String renders the call as SQL.
func (a *AggCall) String() string {
	if a.Star {
		return a.Name + "(*)"
	}
	if a.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", a.Name, a.Arg)
	}
	return fmt.Sprintf("%s(%s)", a.Name, a.Arg)
}

// SelectItem is one entry in the select list: either an aggregate call
// or a plain (grouping) expression, optionally aliased.
type SelectItem struct {
	Agg   *AggCall  // non-nil for aggregate items
	Expr  expr.Expr // non-nil for plain items
	Alias string
}

// IsAgg reports whether the item is an aggregate.
func (s *SelectItem) IsAgg() bool { return s.Agg != nil }

// Label returns the output column name: the alias when present,
// otherwise the rendered expression.
func (s *SelectItem) Label() string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Agg != nil {
		return s.Agg.String()
	}
	return s.Expr.String()
}

// String renders the item as SQL.
func (s *SelectItem) String() string {
	var base string
	if s.Agg != nil {
		base = s.Agg.String()
	} else {
		base = s.Expr.String()
	}
	if s.Alias != "" {
		return base + " AS " + quoteAliasIfNeeded(s.Alias)
	}
	return base
}

// quoteAliasIfNeeded delegates to the expression layer's identifier
// quoting so aliases, column references and table names all round-trip
// under one rule (leading digits and reserved spellings included).
func quoteAliasIfNeeded(a string) string {
	return expr.QuoteIdent(a)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// String renders the key as SQL.
func (o *OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// SelectStmt is a parsed single-block aggregate query.
type SelectStmt struct {
	Items   []SelectItem
	From    string
	Where   expr.Expr // nil when absent
	GroupBy []expr.Expr
	Having  expr.Expr // nil when absent
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// HasAggregates reports whether any select item is an aggregate.
func (s *SelectStmt) HasAggregates() bool {
	for i := range s.Items {
		if s.Items[i].IsAgg() {
			return true
		}
	}
	return false
}

// Clone returns a shallow copy of the statement with copied slices, so
// the caller can append WHERE conjuncts without disturbing the original.
// Expression nodes are shared (they are immutable after Resolve aside
// from index binding against the same schema).
func (s *SelectStmt) Clone() *SelectStmt {
	out := *s
	out.Items = append([]SelectItem(nil), s.Items...)
	out.GroupBy = append([]expr.Expr(nil), s.GroupBy...)
	out.OrderBy = append([]OrderItem(nil), s.OrderBy...)
	return &out
}

// String renders the statement as SQL that re-parses to an equal
// statement.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Items[i].String())
	}
	b.WriteString(" FROM ")
	b.WriteString(expr.QuoteIdent(s.From))
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.OrderBy[i].String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}
