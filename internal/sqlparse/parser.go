package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Parse parses one SELECT statement.
func Parse(sql string) (*SelectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sqlparse: trailing input at %s", p.peek())
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression (used for predicates
// arriving over the HTTP API).
func ParseExpr(s string) (expr.Expr, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sqlparse: trailing input at %s", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when
// non-empty; identifiers match case-insensitively).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		// A double-quoted identifier is always a name: it never matches
		// a keyword spelling ("where" the column vs WHERE the clause).
		if t.quoted {
			return false
		}
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[kind]
	}
	return token{}, fmt.Errorf("sqlparse: expected %s, found %s", want, p.peek())
}

func (p *parser) keyword(kw string) bool { return p.accept(tokIdent, kw) }

var reservedAfterExpr = map[string]bool{
	"from": true, "where": true, "group": true, "having": true,
	"order": true, "limit": true, "as": true, "and": true, "or": true,
	"not": true, "in": true, "like": true, "between": true, "is": true,
	"asc": true, "desc": true, "by": true, "null": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokIdent, "select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, *item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokIdent, "from"); err != nil {
		return nil, err
	}
	fromTok, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, fmt.Errorf("sqlparse: expected table name: %w", err)
	}
	stmt.From = fromTok.text

	if p.keyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.keyword("group") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.keyword("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.keyword("order") {
		if _, err := p.expect(tokIdent, "by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.keyword("desc") {
				item.Desc = true
			} else {
				p.keyword("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.keyword("limit") {
		numTok, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(numTok.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlparse: bad LIMIT %q", numTok.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	item := &SelectItem{}
	// Aggregate call? bare ident '(' with aggregate name (a quoted
	// "count" is a column, never a call).
	if p.peek().kind == tokIdent && !p.peek().quoted && agg.IsAggregate(p.peek().text) &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		name := strings.ToLower(p.next().text)
		p.next() // '('
		call := &AggCall{Name: name}
		if p.accept(tokSymbol, "*") {
			if name != "count" {
				return nil, fmt.Errorf("sqlparse: %s(*) is only valid for count", name)
			}
			call.Star = true
		} else {
			call.Distinct = p.keyword("distinct")
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Arg = arg
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		item.Agg = call
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item.Expr = e
	}
	if p.keyword("as") {
		aliasTok, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, fmt.Errorf("sqlparse: expected alias: %w", err)
		}
		item.Alias = aliasTok.text
	} else if p.peek().kind == tokIdent &&
		(p.peek().quoted || !reservedAfterExpr[strings.ToLower(p.peek().text)]) {
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression grammar (precedence climbing):
//
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr [(=|!=|<|<=|>|>=) addExpr
//	             | [NOT] IN (...) | [NOT] LIKE str
//	             | [NOT] BETWEEN addExpr AND addExpr | IS [NOT] NULL]
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/|%) unary)*
//	unary    := - unary | primary
//	primary  := literal | ident | func(...) | ( orExpr )
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.NewBin(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.NewBin(expr.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.keyword("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(x), nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]expr.BinOp{
	"=": expr.OpEq, "!=": expr.OpNeq, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return expr.NewBin(op, left, right), nil
		}
	}
	invert := false
	if p.at(tokIdent, "not") {
		// lookahead for NOT IN / NOT LIKE / NOT BETWEEN
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokIdent {
			nxt := strings.ToLower(p.toks[p.pos+1].text)
			if nxt == "in" || nxt == "like" || nxt == "between" {
				p.next()
				invert = true
			}
		}
	}
	switch {
	case p.keyword("in"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &expr.In{X: left, List: list, Invert: invert}, nil
	case p.keyword("like"):
		patTok, err := p.expect(tokString, "")
		if err != nil {
			return nil, fmt.Errorf("sqlparse: LIKE wants a string pattern: %w", err)
		}
		return &expr.Like{X: left, Pattern: patTok.text, Invert: invert}, nil
	case p.keyword("between"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: left, Lo: lo, Hi: hi, Invert: invert}, nil
	case p.keyword("is"):
		neg := p.keyword("not")
		if _, err := p.expect(tokIdent, "null"); err != nil {
			return nil, err
		}
		return &expr.IsNull{X: left, Invert: neg}, nil
	}
	if invert {
		return nil, fmt.Errorf("sqlparse: dangling NOT at %s", p.peek())
	}
	return left, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch {
		case p.accept(tokSymbol, "+"):
			op = expr.OpAdd
		case p.accept(tokSymbol, "-"):
			op = expr.OpSub
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = expr.NewBin(op, left, right)
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.BinOp
		switch {
		case p.accept(tokSymbol, "*"):
			op = expr.OpMul
		case p.accept(tokSymbol, "/"):
			op = expr.OpDiv
		case p.accept(tokSymbol, "%"):
			op = expr.OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = expr.NewBin(op, left, right)
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals for cleaner rendering.
		if lit, ok := x.(*expr.Lit); ok {
			switch lit.Val.T {
			case engine.TInt:
				return expr.Int(-lit.Val.I), nil
			case engine.TFloat:
				return expr.Float(-lit.Val.F), nil
			}
		}
		return expr.NewNeg(x), nil
	}
	p.accept(tokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if !strings.ContainsAny(t.text, ".eE") {
			i, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return expr.Int(i), nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: bad number %q", t.text)
		}
		return expr.Float(f), nil
	case tokString:
		p.next()
		return expr.Str(t.text), nil
	case tokIdent:
		lower := strings.ToLower(t.text)
		// Literal spellings and calls apply to BARE identifiers only; a
		// quoted "null"/"true"/"count" is a column named that.
		if !t.quoted {
			switch lower {
			case "null":
				p.next()
				return expr.NewLit(engine.Null), nil
			case "true":
				p.next()
				return expr.NewLit(engine.NewBool(true)), nil
			case "false":
				p.next()
				return expr.NewLit(engine.NewBool(false)), nil
			}
		}
		// function call?
		if !t.quoted && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			if agg.IsAggregate(lower) {
				// Aggregate calls outside the select list (HAVING,
				// ORDER BY) parse as references to the output column of
				// the same rendered name, e.g. "count(*)". Resolution
				// against the source schema (i.e. in WHERE) fails with
				// an unknown-column error, which is the correct
				// diagnosis: aggregates are not allowed there.
				p.next()
				p.next() // '('
				call := &AggCall{Name: lower}
				if p.accept(tokSymbol, "*") {
					if lower != "count" {
						return nil, fmt.Errorf("sqlparse: %s(*) is only valid for count", lower)
					}
					call.Star = true
				} else {
					call.Distinct = p.keyword("distinct")
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Arg = arg
				}
				if _, err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				return expr.NewCol(call.String()), nil
			}
			if !expr.IsScalarFunc(lower) {
				return nil, fmt.Errorf("sqlparse: unknown function %q", t.text)
			}
			p.next()
			p.next() // '('
			var args []expr.Expr
			if !p.at(tokSymbol, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(tokSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return expr.NewFunc(lower, args...), nil
		}
		p.next()
		return expr.NewCol(t.text), nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqlparse: unexpected token %s", t)
}
