package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/store"
)

// appendFixture is a durable Intel readings table on MemFS behind
// Handler(), and a 1,000-row append body in the shape a monitoring
// client posts: unix seconds, two ints, four floats per row.
func appendFixture(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	st, err := store.Open("/db", store.Options{FS: store.NewMemFS(), Logf: func(string, ...any) {}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := st.CreateTable("readings", datasets.IntelSchema(), engine.DefaultSegmentBits); err != nil {
		tb.Fatal(err)
	}
	srv := New(st.Eng())
	srv.AttachStore(st)

	src, _ := datasets.Intel(datasets.IntelConfig{Rows: 1000, Seed: 3})
	rows := make([][]any, src.NumRows())
	for i := range rows {
		row := make([]any, src.NumCols())
		for c, v := range src.Row(i) {
			if v.T == engine.TFloat {
				row[c] = v.F
			} else {
				row[c] = v.I
			}
		}
		rows[i] = row
	}
	body, err := json.Marshal(map[string]any{"table": "readings", "rows": rows})
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), body
}

// postAppend sends one append body through h and fails unless it is
// acknowledged.
func postAppend(tb testing.TB, h http.Handler, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/api/append", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("append: status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkAppendBody is one durable 1,000-row append through the HTTP
// handler: envelope decode, body scan, WAL record, fsync on MemFS and
// the publish into the tail's chunks.
func BenchmarkAppendBody(b *testing.B) {
	h, body := appendFixture(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postAppend(b, h, body)
	}
}

// maxAppendAllocs bounds the allocations of one durable 1,000-row
// append at about twice what the batch path measures (≈ 110 with the
// request's stage record and its header; the boxed path it replaced
// made ≈ 18,400, about 2.6 a cell).
const maxAppendAllocs = 192

// TestAppendBodyAllocs pins the batch path without a clock: one
// 1,000-row append allocates a bounded number of objects, not a few per
// cell.
func TestAppendBodyAllocs(t *testing.T) {
	h, body := appendFixture(t)
	postAppend(t, h, body) // warm the tail's capacity
	allocs := testing.AllocsPerRun(20, func() { postAppend(t, h, body) })
	t.Logf("allocations per 1,000-row append: %.0f", allocs)
	if allocs > maxAppendAllocs {
		t.Fatalf("one 1,000-row append allocates %.0f objects, want ≤ %d", allocs, maxAppendAllocs)
	}
}

// fuzzSchema covers every column type an append body can address.
var fuzzSchema = engine.NewSchema("ts", engine.TTime, "n", engine.TInt, "f", engine.TFloat, "b", engine.TBool, "s", engine.TString)

// FuzzAppendBody is differential: any body POSTed to /api/append —
// through the batch decoder into a durable store on MemFS — must get the
// same 2xx/4xx class and store the same cells, bit for bit, as
// legacyAppend, the [][]any path the decoder replaced. Neither may panic
// or answer 5xx.
func FuzzAppendBody(f *testing.F) {
	f.Add([]byte(`{"table":"p","rows":[[1700000000,7,1.5,true,"x"]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := store.Open("/db", store.Options{FS: store.NewMemFS(), Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.CreateTable("p", fuzzSchema, engine.MinSegmentBits); err != nil {
			t.Fatal(err)
		}
		srv := New(st.Eng())
		srv.AttachStore(st)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/append", bytes.NewReader(body)))

		oracle := engine.NewDB()
		oracle.Register(engine.MustNewTable("p", fuzzSchema))
		want := legacyAppend(oracle, body)
		if rec.Code >= 500 || rec.Code/100 != want/100 {
			t.Fatalf("batch path answered %d (%s), the [][]any path %d", rec.Code, rec.Body, want)
		}
		got, _ := st.Eng().Table("p")
		exp, _ := oracle.Table("p")
		if got.NumRows() != exp.NumRows() {
			t.Fatalf("batch path stored %d rows, the [][]any path %d", got.NumRows(), exp.NumRows())
		}
		for r := 0; r < got.NumRows(); r++ {
			for c := range fuzzSchema {
				if g, e := got.Value(r, c), exp.Value(r, c); !sameCell(g, e) {
					t.Fatalf("row %d column %s: batch path stored %#v, the [][]any path %#v", r, fuzzSchema[c].Name, g, e)
				}
			}
		}
	})
}

// sameCell is bit-identical Value equality (NaN payloads and -0.0 too).
func sameCell(a, b engine.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// legacyAppend is the append path the batch decoder replaced, kept as
// its oracle: encoding/json into [][]any, jsonValue per cell, then
// Table.AppendBatch through the catalog; it returns the status the
// handler answered. It differs from that path in the one intended
// place: numbers decode as json.Number, so an integer literal reaches an
// int or time column exactly instead of rounding through float64.
func legacyAppend(db *engine.DB, body []byte) int {
	var req struct {
		Table string  `json:"table"`
		Rows  [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil || req.Table == "" || len(req.Rows) == 0 {
		return http.StatusBadRequest
	}
	t, err := db.Table(req.Table)
	if err != nil {
		return http.StatusNotFound
	}
	schema := t.Schema()
	rows := make([][]engine.Value, len(req.Rows))
	for ri, raw := range req.Rows {
		if len(raw) != len(schema) {
			return http.StatusBadRequest
		}
		rows[ri] = make([]engine.Value, len(raw))
		for ci, cell := range raw {
			if rows[ri][ci], err = jsonValue(cell, schema[ci].Type); err != nil {
				return http.StatusBadRequest
			}
		}
	}
	if _, err := db.Append(req.Table, rows); err != nil {
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// jsonValue converts one decoded JSON cell to an engine value of the
// column's type.
func jsonValue(cell any, ct engine.Type) (engine.Value, error) {
	switch c := cell.(type) {
	case nil:
		return engine.Null, nil
	case bool:
		if ct != engine.TBool {
			return engine.Null, fmt.Errorf("bool value for %s column", ct)
		}
		return engine.NewBool(c), nil
	case json.Number:
		if ct == engine.TInt || ct == engine.TTime {
			i, err := strconv.ParseInt(string(c), 10, 64)
			if err == nil {
				return engine.Value{T: ct, I: i}, nil
			}
			if errors.Is(err, strconv.ErrRange) {
				return engine.Null, err
			}
		}
		f, err := c.Float64()
		if err != nil {
			return engine.Null, err
		}
		switch ct {
		case engine.TFloat:
			return engine.NewFloat(f), nil
		case engine.TInt, engine.TTime:
			if f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 {
				return engine.Null, fmt.Errorf("non-integral value %v", f)
			}
			return engine.Value{T: ct, I: int64(f)}, nil
		default:
			return engine.Null, fmt.Errorf("numeric value for %s column", ct)
		}
	case string:
		return engine.ParseValue(c, ct)
	default:
		return engine.Null, fmt.Errorf("unsupported JSON value %T", cell)
	}
}

// TestAppendExactIntegers: an int or time cell past 2^53 is stored
// exactly — read back through /api/query and again after the store
// reopens — where it used to round through float64 (9007199254740993
// became …992). Integral floats still fit an int column; fractions and
// values past int64 still answer 400.
func TestAppendExactIntegers(t *testing.T) {
	fs := store.NewMemFS()
	schema := engine.NewSchema("n", engine.TInt, "ts", engine.TTime)
	serve := func() (*store.DB, http.Handler) {
		st, err := store.Open("/db", store.Options{FS: fs, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(st.Eng())
		srv.AttachStore(st)
		return st, srv.Handler()
	}
	st, h := serve()
	if err := st.CreateTable("p", schema, engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	do := func(h http.Handler, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	const big = 9007199254740993 // 2^53 + 1: float64 rounds it to …992
	body := fmt.Sprintf(`{"table":"p","rows":[[%d,%d],[3.0,1e3],[-%d,null]]}`, big, big, big)
	if code, msg := do(h, "/api/append", body); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, msg)
	}
	for _, bad := range []string{"3.5", "9223372036854775808", "1e19", "-9.3e18"} {
		if code, _ := do(h, "/api/append", `{"table":"p","rows":[[`+bad+`,0]]}`); code != http.StatusBadRequest {
			t.Errorf("int cell %s: status %d, want 400", bad, code)
		}
	}
	want := []int64{-big, 3, big}
	check := func(step string, h http.Handler, st *store.DB) {
		t.Helper()
		code, msg := do(h, "/api/query", `{"sql":"SELECT n, count(*) AS c FROM p GROUP BY n ORDER BY n"}`)
		if code != http.StatusOK {
			t.Fatalf("%s: query: %d %s", step, code, msg)
		}
		var out struct{ Rows [][]json.Number }
		dec := json.NewDecoder(strings.NewReader(msg))
		dec.UseNumber()
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if i >= len(out.Rows) || string(out.Rows[i][0]) != strconv.FormatInt(w, 10) {
				t.Fatalf("%s: query rows %v, want n = %v", step, out.Rows, want)
			}
		}
		tab, _ := st.Eng().Table("p")
		if n, ts := tab.Value(0, 0), tab.Value(0, 1); n.I != big || ts.T != engine.TTime || ts.I != big {
			t.Fatalf("%s: stored %v, %v", step, n, ts)
		}
	}
	check("appended", h, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, h = serve()
	defer st.Close()
	check("reopened", h, st)
}
