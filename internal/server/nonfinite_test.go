package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
)

// postBody posts body and returns the status and the whole response body.
func postBody(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading the body: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestNonFiniteCellsSerializeAsNull is the regression test for results
// holding NaN or ±Inf: encoding/json refuses them, and the handlers used
// to have sent the 200 header by then, so the client got a 200 with an
// empty body. Each statement below must answer a well-formed payload with
// null in the non-finite cells, and so must a zoom over a stored NaN.
func TestNonFiniteCellsSerializeAsNull(t *testing.T) {
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 3000, Seed: 1})
	nan, err := engine.NewTable("nans", engine.NewSchema("k", engine.TInt, "x", engine.TFloat))
	if err != nil {
		t.Fatal(err)
	}
	nan.MustAppendRow(engine.NewInt(1), engine.NewFloat(math.NaN()))
	nan.MustAppendRow(engine.NewInt(1), engine.NewFloat(math.Inf(-1)))
	nan.MustAppendRow(engine.NewInt(1), engine.NewFloat(2.5))
	db.Register(nan)
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()

	type payload struct {
		Rows [][]any `json:"rows"`
	}
	for _, sql := range []string{
		"SELECT moteid, avg(sqrt(temperature - 1000)) AS a FROM readings GROUP BY moteid",
		"SELECT sum(ln(humidity)) AS s FROM readings",
		"SELECT max(exp(temperature*100)) AS m FROM readings",
	} {
		status, body := postBody(t, ts, "/api/query", map[string]any{"session": "nf", "sql": sql})
		var p payload
		if err := json.Unmarshal(body, &p); status != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, body %q: %v", sql, status, body, err)
		}
		if len(p.Rows) == 0 {
			t.Fatalf("%s: no rows", sql)
		}
		for _, row := range p.Rows {
			if cell := row[len(row)-1]; cell != nil {
				t.Fatalf("%s: non-finite aggregate serialized as %v, want null", sql, cell)
			}
		}
	}

	if status, body := postBody(t, ts, "/api/query", map[string]any{"session": "nf", "sql": "SELECT k, count(*) AS n FROM nans GROUP BY k"}); status != http.StatusOK {
		t.Fatalf("query over nans: status %d, body %q", status, body)
	}
	status, body := postBody(t, ts, "/api/zoom", map[string]any{"session": "nf", "suspect": []int{0}})
	var p payload
	if err := json.Unmarshal(body, &p); status != http.StatusOK || err != nil {
		t.Fatalf("zoom: status %d, body %q: %v", status, body, err)
	}
	if len(p.Rows) != 3 || p.Rows[0][2] != nil || p.Rows[1][2] != nil || p.Rows[2][2] != 2.5 {
		t.Fatalf("zoom rows = %v, want x = null, null, 2.5", p.Rows)
	}

	// The debug payload's scores go through the same conversion.
	if b, err := json.Marshal(explanationJSON{Score: finiteJSON(math.Inf(1)), F1: finiteJSON(0.5)}); err != nil || !bytes.Contains(b, []byte(`"score":null`)) || !bytes.Contains(b, []byte(`"f1":0.5`)) {
		t.Fatalf("explanationJSON marshals to %s, %v", b, err)
	}
}

// TestSuggestOverNonFiniteAggregate: the suggested c is the median of the
// other groups' aggregate, which is +Inf when those cells are. It used to
// answer a JSON 500 ("unsupported value: +Inf"); now it is null, like
// every other non-finite float on the wire.
func TestSuggestOverNonFiniteAggregate(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 3000, Seed: 1})
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()
	sql := "SELECT day, max(exp(amount * 100)) AS m FROM donations GROUP BY day"
	if status, body := postBody(t, ts, "/api/query", map[string]any{"session": "inf", "sql": sql}); status != http.StatusOK {
		t.Fatalf("query: status %d, body %q", status, body)
	}
	status, body := postBody(t, ts, "/api/suggest", map[string]any{"session": "inf", "suspect": []int{0}, "aggItem": 1})
	var p map[string]any
	if err := json.Unmarshal(body, &p); status != http.StatusOK || err != nil {
		t.Fatalf("suggest: status %d, body %q: %v", status, body, err)
	}
	if c, ok := p["suggestedC"]; !ok || c != nil {
		t.Fatalf("suggestedC = %v (present %v), want null", c, ok)
	}
}

// TestPCAOverNonFiniteCells is the regression test for the PCA view of a
// result with 3+ numeric columns holding ±Inf: the projection turned the
// cells into NaN coordinates and the whole answer into a JSON 500. A ±Inf
// cell now sits at its column's mean, as NaN and NULL do, so the view is
// served; a projection that is still not finite (finite cells whose sum
// overflows) is left out of a well-formed 200.
func TestPCAOverNonFiniteCells(t *testing.T) {
	db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 3000, Seed: 1})
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()
	for _, c := range []struct {
		sql     string
		wantPCA bool
	}{
		{"SELECT moteid, avg(humidity) AS h, max(exp(temperature*100)) AS e, min(light) AS l FROM readings GROUP BY moteid", true},
		{"SELECT moteid, avg(humidity) AS h, max(humidity * 1e306) AS big, min(light) AS l FROM readings GROUP BY moteid", false},
	} {
		status, body := postBody(t, ts, "/api/query", map[string]any{"session": "pca", "sql": c.sql})
		var p map[string]json.RawMessage
		if err := json.Unmarshal(body, &p); status != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, body %.300q: %v", c.sql, status, body, err)
		}
		var proj [][2]float64
		if raw, ok := p["pca"]; ok != c.wantPCA {
			t.Fatalf("%s: pca present = %v, want %v", c.sql, ok, c.wantPCA)
		} else if ok {
			if err := json.Unmarshal(raw, &proj); err != nil || len(proj) == 0 {
				t.Fatalf("%s: pca = %s: %v", c.sql, raw, err)
			}
		}
		if _, ok := p["pcaExplained"]; ok != c.wantPCA {
			t.Fatalf("%s: pcaExplained present = %v, want %v", c.sql, ok, c.wantPCA)
		}
	}
}

// TestWriteJSONEncodeFailure: a value the encoder refuses is answered as
// a JSON 500, whatever status the handler had in mind.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.NaN()})
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
}

// TestZoomPinsPerSegmentNotPerCell: zooming into a suspect whose lineage
// is a whole out-of-core table reads it through one RowReader — one pin
// per column per segment crossing, all released — where boxing each row
// with Table.Row took a transient pin per cell.
func TestZoomPinsPerSegmentNotPerCell(t *testing.T) {
	src, err := engine.NewTableSeg("p", enginetest.EdgeSchema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	row := []engine.Value{engine.NewInt(7), engine.NewFloat(0.5), engine.NewBool(true), engine.NewString("a"), engine.NewTimeUnix(9)}
	rows := make([][]engine.Value, 4*64+10)
	for r := range rows {
		rows[r] = row
	}
	if src, err = src.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	twin, l := enginetest.Faultable(src)
	db := engine.NewDB()
	db.Register(twin)
	ts := httptest.NewServer(New(db).Handler())
	defer ts.Close()

	if status, body := postBody(t, ts, "/api/query", map[string]any{"session": "z", "sql": "SELECT count(*) AS n FROM p"}); status != http.StatusOK {
		t.Fatalf("query: status %d, body %q", status, body)
	}
	pins := func() int {
		floats, codes, ints, pinned := l.Counts()
		if pinned != 0 {
			t.Fatalf("%d chunks still pinned", pinned)
		}
		return floats + codes + ints
	}
	before := pins()
	status, body := postBody(t, ts, "/api/zoom", map[string]any{"session": "z", "suspect": []int{0}})
	var p struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &p); status != http.StatusOK || err != nil || len(p.Rows) != len(rows) {
		t.Fatalf("zoom: status %d, %d rows: %v", status, len(p.Rows), err)
	}
	if got, want := pins()-before, 4*twin.NumCols(); got != want {
		t.Fatalf("zoom over %d rows took %d pins, want %d (4 faultable segments × %d columns)", len(rows), got, want, twin.NumCols())
	}
}
