// Package sqlparse implements a lexer and recursive-descent parser for
// the single-block aggregate SQL dialect DBWipes accepts:
//
//	SELECT item [, item ...]
//	FROM table
//	[WHERE predicate]
//	[GROUP BY expr [, expr ...]]
//	[HAVING predicate]
//	[ORDER BY expr [ASC|DESC] [, ...]]
//	[LIMIT n]
//
// where an item is an expression or an aggregate call (avg, sum, count,
// min, max, stddev, var, median) with an optional "AS alias". Parsed
// statements render back to SQL via String(), and the renderer output
// re-parses to an equal statement (round-trip property, tested).
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
	// quoted marks a double-quoted identifier: it never matches
	// keywords and never folds to the NULL/true/false literals, so
	// columns spelled like reserved words round-trip through SQL text.
	quoted bool
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex tokenizes the input. Keywords are returned as tokIdent; the parser
// matches them case-insensitively.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_' || input[i] == '.') {
				i++
			}
			toks = append(toks, token{kind: tokIdent, text: input[start:i], pos: start})
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				ch := input[i]
				if unicode.IsDigit(rune(ch)) {
					i++
					continue
				}
				if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && !seenExp && i+1 < n &&
					(unicode.IsDigit(rune(input[i+1])) || input[i+1] == '+' || input[i+1] == '-') {
					seenExp = true
					i += 2
					continue
				}
				break
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case c == '\'':
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqlparse: unterminated string at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: b.String(), pos: i})
		case c == '"': // quoted identifier
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '"' {
					if i+1 < n && input[i+1] == '"' { // escaped quote
						b.WriteByte('"')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqlparse: unterminated quoted identifier at %d", start)
			}
			toks = append(toks, token{kind: tokIdent, text: b.String(), pos: start, quoted: true})
		default:
			// multi-char operators first
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "!=", "<>":
				if two == "<>" {
					two = "!="
				}
				toks = append(toks, token{kind: tokSymbol, text: two, pos: i})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '+', '-', '*', '/', '%', '=', '<', '>', ';':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}
