package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/testgen"
)

// TestRetentionEndpoint drops whole head segments of table p (330 rows in
// 64-row segments) down to 138 rows and republishes the catalog's
// version; a request without a policy, or for an unknown table, is a 400.
func TestRetentionEndpoint(t *testing.T) {
	sut, _ := newSUTs(false, testgen.Batch(rand.New(rand.NewSource(1)), 5*64+10))
	must(0, sut.open(0))
	var out struct {
		Segments int `json:"dropped_segments"`
		Rows     int `json:"dropped_rows"`
		Base     int `json:"base"`
	}
	code, _, got := sut.do(t.Context(), "/api/retention", `{"table":"p","max_rows":128}`)
	if json.Unmarshal(got, &out); code != http.StatusOK || out.Segments != 3 || out.Rows != 3*64 || out.Base != 3*64 {
		t.Fatalf("retention answered %d %s", code, got)
	}
	if cur := must(sut.db.Table("p")); cur.Base() != 3*64 || cur.NumRows() != 2*64+10 {
		t.Fatalf("catalog table not republished: base %d rows %d", cur.Base(), cur.NumRows())
	}
	for _, body := range []string{`{"table":"p"}`, `{"table":"nope","max_rows":1}`} {
		if code, _, got := sut.do(t.Context(), "/api/retention", body); code != http.StatusBadRequest {
			t.Fatalf("%s answered %d %s", body, code, got)
		}
	}
}

// TestStatsEndpoint pins the storage accounting: per-table and
// per-session retained segment counts and approximate bytes. A session
// shows the version of its last payload, the oldest it holds: after a
// retention, and after a debug that refreshed its result, the larger
// pre-retention window, until a re-query moves it across the horizon.
func TestStatsEndpoint(t *testing.T) {
	sut, _ := newSUTs(false, testgen.Batch(rand.New(rand.NewSource(1)), 5*64+10))
	must(0, sut.open(0))
	type footprint struct {
		Table, Session       string
		Rows, Base, Segments int
		Bytes                int `json:"approx_bytes"`
	}
	stats := func() (table, sess footprint) {
		var out struct {
			Tables   map[string]footprint
			Sessions []footprint
		}
		_, _, body := sut.do(t.Context(), "/api/stats", "")
		if json.Unmarshal(body, &out) != nil || len(out.Sessions) != 1 || out.Sessions[0].Session != "pinner" {
			t.Fatalf("stats %s", body)
		}
		return out.Tables["p"], out.Sessions[0]
	}
	query := `{"session":"pinner","sql":"SELECT j, sum(f) AS s FROM p GROUP BY j"}`
	sut.do(t.Context(), "/api/query", query)
	sut.do(t.Context(), "/api/retention", `{"table":"p","max_rows":128}`)
	for _, after := range []string{"retention", "debug"} {
		if after == "debug" { // it refreshes the result before it answers (409: every group lost its first row)
			sut.do(t.Context(), "/api/debug", `{"session":"pinner","suspect":[0],"metric":"toohigh","metricParams":{"c":0}}`)
		}
		if p, s := stats(); p.Base != 3*64 || p.Rows != 2*64+10 || p.Segments == 0 || p.Bytes == 0 ||
			s.Table != "p" || s.Base != 0 || s.Rows != 5*64+10 || s.Segments <= p.Segments || s.Bytes <= p.Bytes {
			t.Fatalf("after the %s: table %+v, session %+v (want the larger pre-retention window)", after, p, s)
		}
	}
	sut.do(t.Context(), "/api/query", query)
	if _, s := stats(); s.Base != 3*64 {
		t.Fatalf("session did not advance across the horizon: %+v", s)
	}
}
