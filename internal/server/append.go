package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/store"
)

// handleAppend is the streaming ingest endpoint: it appends a batch of
// rows to a table through the engine's copy-on-write path, so queries in
// flight keep their snapshot and later queries see the whole batch.
// Cell values follow JSON typing: null, bool, number (int and time
// columns take integers — exactly, past 2^53 too — and integral floats
// such as 3.0 or 1e3; time columns read unix seconds), or string (parsed
// per column type, so timestamps may also be RFC 3339 strings).
//
// encoding/json decodes and validates the envelope — size cap,
// case-insensitive keys, unknown fields, trailing bytes — and decodeRows
// scans the rows it left raw straight into an engine.Batch.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Table string     `json:"table"`
		Rows  appendRows `json:"rows"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Table == "" {
		writeErr(w, http.StatusBadRequest, errNoRows)
		return
	}
	t, err := s.db.Table(req.Table)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	b, err := decodeRows(string(req.Rows), t.Schema())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	nt, durable, err := s.appendBatch(r.Context(), req.Table, b)
	if err != nil {
		// Fail-stopped tables answer 503 + Retry-After here (the batch
		// is safe to retry: nothing was acknowledged), deadline/cancel
		// map to 504/499 — see writeReqErr.
		writeReqErr(s, w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":    nt.Name(),
		"appended": b.Len(),
		"rows":     nt.NumRows(),
		"version":  nt.Version(),
		"durable":  durable,
	})
}

// appendBatch appends through the durable store when one is attached
// and manages the table, through the engine catalog otherwise, and
// reports whether the append was durable.
func (s *Server) appendBatch(ctx context.Context, table string, b *engine.Batch) (*engine.Table, bool, error) {
	if s.st != nil {
		nt, err := s.st.AppendColsCtx(ctx, table, b)
		if !errors.Is(err, store.ErrUnknownTable) {
			return nt, err == nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		// Mirror the store's contract on the in-memory path: cancel
		// before publishing or not at all.
		return nil, false, fmt.Errorf("server: append %s: %w", table, err)
	}
	nt, err := s.db.AppendCols(table, b)
	return nt, false, err
}

var errNoRows = errors.New("append needs a table and a non-empty array of rows")

// appendRows is an append body's raw "rows", for decodeRows. Of a
// repeated key encoding/json keeps the last value but still fails the
// decode when an earlier one is not an array of rows, as the [][]any
// field this replaced did; UnmarshalJSON checks a shadowed value so.
type appendRows string

func (r *appendRows) UnmarshalJSON(b []byte) (err error) {
	if *r != "" {
		err = json.Unmarshal([]byte(*r), new([][]any))
	}
	*r = appendRows(b)
	return err
}

// decodeRows scans a non-empty JSON array of rows — already validated
// by encoding/json — into a batch of schema's types, checking every cell
// on the way in: float cells parse as encoding/json parses them, integer
// literals for int and time columns parse exactly, strings follow
// engine.ParseValue.
func decodeRows(raw string, schema engine.Schema) (*engine.Batch, error) {
	sc := rowScanner{s: raw}
	if sc.peek() != '[' {
		return nil, errNoRows
	}
	// Room for as many rows as the body could hold: a row of n cells
	// takes at least 2n+1 bytes, and opens one bracket.
	b := engine.NewBatch(schema, min(strings.Count(sc.s, "["), len(sc.s)/(2*len(schema)+1)))
	sc.off++
	for r := 0; sc.more(); r++ {
		if sc.peek() != '[' {
			return nil, fmt.Errorf("row %d is not an array", r)
		}
		sc.off++
		c := 0
		for ; sc.more(); c++ {
			if c == len(schema) {
				return nil, fmt.Errorf("row %d has more than %d values, schema has %d columns", r, c, len(schema))
			}
			if err := sc.cell(b, c, schema[c].Type); err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", r, schema[c].Name, err)
			}
		}
		if c != len(schema) {
			return nil, fmt.Errorf("row %d has %d values, schema has %d columns", r, c, len(schema))
		}
	}
	if b.Len() == 0 {
		return nil, errNoRows
	}
	return b, nil
}

// rowScanner walks valid JSON text; it never needs to report a syntax
// error, only values of the wrong shape.
type rowScanner struct {
	s   string
	off int
}

// peek skips whitespace and returns the next byte (0 at the end).
func (sc *rowScanner) peek() byte {
	for ; sc.off < len(sc.s); sc.off++ {
		if c := sc.s[sc.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// more reports whether the array being scanned holds another value,
// stepping over the comma before it or the bracket that closes it.
func (sc *rowScanner) more() bool {
	switch sc.peek() {
	case ']':
		sc.off++
		return false
	case ',':
		sc.off++
	}
	return true
}

// cell appends the JSON value at the cursor to column c of type typ.
func (sc *rowScanner) cell(b *engine.Batch, c int, typ engine.Type) error {
	switch ch := sc.peek(); {
	case ch == 'n':
		sc.off += len("null")
		b.AppendNull(c)
		return nil
	case ch == 't' || ch == 'f':
		sc.off += len("true")
		if ch == 'f' {
			sc.off++
		}
		if typ != engine.TBool {
			return fmt.Errorf("bool value for %s column", typ)
		}
		return b.AppendValue(c, engine.NewBool(ch == 't'))
	case ch == '"':
		str, err := sc.str()
		if err != nil {
			return err
		}
		v, err := engine.ParseValue(str, typ)
		if err != nil {
			return err
		}
		return b.AppendValue(c, v)
	case ch == '-' || '0' <= ch && ch <= '9':
		start := sc.off
		for ; sc.off < len(sc.s); sc.off++ {
			if d := sc.s[sc.off]; d-'0' >= 10 && d != '.' && d|0x20 != 'e' && d != '-' && d != '+' {
				break
			}
		}
		return appendNumber(b, c, typ, sc.s[start:sc.off])
	}
	return fmt.Errorf("unsupported JSON value %q", sc.s[sc.off:sc.off+1])
}

// str returns the string at the cursor: the bytes themselves when they
// hold no escape and are valid UTF-8, encoding/json's decoding (escapes,
// U+FFFD for invalid bytes) otherwise.
func (sc *rowScanner) str() (string, error) {
	start, escaped := sc.off, false
	for sc.off++; sc.s[sc.off] != '"'; sc.off++ {
		if sc.s[sc.off] == '\\' {
			escaped = true
			sc.off++
		}
	}
	sc.off++
	if body := sc.s[start+1 : sc.off-1]; !escaped && utf8.ValidString(body) {
		return body, nil
	}
	var out string
	err := json.Unmarshal([]byte(sc.s[start:sc.off]), &out)
	return out, err
}

// appendNumber appends a JSON number literal to column c: a float
// column takes strconv.ParseFloat's value, an int or time column an
// integer — the literal's exact value, or an integral float in int64's
// range (3.0, 1e3).
func appendNumber(b *engine.Batch, c int, typ engine.Type, lit string) error {
	switch typ {
	case engine.TFloat:
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return err
		}
		b.AppendFloat(c, f)
	case engine.TInt, engine.TTime:
		i, err := strconv.ParseInt(lit, 10, 64)
		if errors.Is(err, strconv.ErrSyntax) {
			var f float64
			if f, err = strconv.ParseFloat(lit, 64); err == nil && (f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63) {
				err = fmt.Errorf("%s is not an integer in int64's range", lit)
			}
			i = int64(f)
		}
		if err != nil {
			return fmt.Errorf("%s column: %w", typ, err)
		}
		b.AppendInt(c, i)
	default:
		return fmt.Errorf("numeric value for %s column", typ)
	}
	return nil
}
