package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/vfs/vfstest"
)

// The served-database harness the session generator and the tests below
// share: table p of testgen's schema in 64-row segments, in a store on a
// vfstest.MemFS or in an engine catalog, served through Handler().

// sessSUT is one served database: a store on mem, or an engine catalog.
type sessSUT struct {
	mem *vfstest.MemFS
	st  *store.DB
	db  *engine.DB
	h   http.Handler
}

// pTable is table p of rows.
func pTable(rows [][]engine.Value) *engine.Table {
	return must(must(engine.NewTableSeg("p", testgen.Schema(), engine.MinSegmentBits)).AppendBatch(rows))
}

// newSUTs seeds table p with rows for a SUT and its twin: in an engine
// catalog each, or in a store whose files the twin gets a clone of.
func newSUTs(onStore bool, rows [][]engine.Value) (sut, twin *sessSUT) {
	sut, twin = &sessSUT{}, &sessSUT{}
	if !onStore {
		sut.db, twin.db = engine.NewDB(), engine.NewDB()
		sut.db.Register(pTable(rows))
		twin.db.Register(pTable(rows))
		return sut, twin
	}
	sut.mem = vfstest.NewMemFS()
	st := must(store.Open("/db", store.Options{SyncEvery: 1, FS: sut.mem, Logf: func(string, ...any) {}}))
	must(0, st.CreateTable("p", testgen.Schema(), engine.MinSegmentBits))
	must(st.Append("p", rows))
	must(0, st.Close())
	twin.mem = sut.mem.Clone()
	return sut, twin
}

// open serves the catalog, or the store reopened behind pool.
func (s *sessSUT) open(pool int64) (err error) {
	if s.mem != nil {
		if s.st, err = store.Open("/db", store.Options{SyncEvery: 1, FS: s.mem, Logf: func(string, ...any) {}, MaxResidentBytes: pool}); err != nil {
			return err
		}
		s.db = s.st.Eng()
	}
	srv := New(s.db)
	srv.AttachStore(s.st)
	srv.SetLimits(Limits{QueryTimeout: -1, DebugTimeout: -1, IngestTimeout: -1})
	s.h = srv.Handler()
	return nil
}

func (s *sessSUT) close() error {
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// do sends body to path (a GET without one) under ctx.
func (s *sessSUT) do(ctx context.Context, path, body string) (int, http.Header, []byte) {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	if body != "" {
		r = httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r.WithContext(ctx))
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// invariants: no chunk pinned, every request classified once, and
// session s, while m's client holds a payload, showing that payload's
// version in its footprint (m may be nil).
func (s *sessSUT) invariants(m *sessModel) error {
	if s.st != nil && s.st.PoolPinned() != 0 {
		return fmt.Errorf("%d chunks pinned between requests", s.st.PoolPinned())
	}
	var out struct {
		Endpoints map[string]endpointStats
		Sessions  []sessionStats
	}
	if _, _, body := s.do(context.Background(), "/api/stats", ""); json.Unmarshal(body, &out) != nil {
		return fmt.Errorf("/api/stats: %s", body)
	}
	for name, c := range out.Endpoints {
		if name != "stats" && (c.Total != c.Completed+c.Shed+c.Deadline+c.Cancelled || c.InFlight != 0) {
			return fmt.Errorf("%s's requests not classified once: %+v", name, c)
		}
	}
	for _, ss := range out.Sessions {
		if m != nil && m.queried && ss.Session == "s" && ss.Base != m.seenBase {
			return fmt.Errorf("session stats %+v, the payload's base %d", ss, m.seenBase)
		}
	}
	return nil
}

// loadFailed checks a retryable chunk-load failure's answer.
func loadFailed(got []byte, hdr http.Header) error {
	if !bytes.Contains(got, []byte(`"reason":"segment-load-failed"`)) || hdr.Get("Retry-After") == "" {
		return fmt.Errorf("a read fault answered %s (Retry-After %q)", got, hdr.Get("Retry-After"))
	}
	return nil
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// appendBody is an append step's request, the rows it appends and the
// status it must answer: founding groups no draw has made when fresh is
// set (tagged by it); one row short or mistyped, or the table unknown,
// when bad is.
func appendBody(spec string) (string, [][]engine.Value, int) {
	var a struct {
		Rows, Fresh int
		Seed        int64
		Bad         bool
	}
	_ = json.Unmarshal([]byte(spec), &a)
	rng := rand.New(rand.NewSource(a.Seed))
	js, rows := testgen.JSONBatch(rng, a.Rows), [][]engine.Value(nil)
	for _, r := range js {
		if a.Fresh > 0 {
			r[0], r[1], r[3] = 1000+3*a.Fresh, 100+a.Fresh, fmt.Sprint("fresh", a.Fresh)
		}
		rows = append(rows, testgen.EngRow(r))
	}
	table, status := "p", http.StatusOK
	if a.Bad {
		js[rng.Intn(len(js))] = [][]any{{true, 1, 1.5, "a", 5}, {1, 1}, nil}[a.Seed%3]
		table, status = []string{"p", "p", "nope"}[a.Seed%3], []int{400, 400, 404}[a.Seed%3]
	}
	return string(must(json.Marshal(map[string]any{"table": table, "rows": js}))), rows, status
}

// A fresh and a carried /api/debug with each read of their clean pass
// failing in turn (at most 64, spread as chaos.CancelEach spreads polls)
// answer a retryable 503 and pin nothing, and their retries answer what
// the clean pass answered. Every fresh attempt runs on a new session; a
// carried one on one of 65 sessions that debugged before an append.
func TestMatrixDebugLoadFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var rows [][]engine.Value
	for range 300 {
		rows = append(rows, testgen.EngRow(testgen.JSONRow(rng)))
	}
	sut, _ := newSUTs(true, rows)
	must(0, sut.open(256)) // every pin a read
	defer sut.close()
	send := func(path, form, session string) (int, http.Header, []byte) {
		return sut.do(t.Context(), path, fmt.Sprintf(form, session))
	}
	const query = `{"session":%q,"sql":"SELECT s, sum(f) AS a FROM p GROUP BY s"}`
	const debug = `{"session":%q,"suspect":[0,1],"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"examplesCond":"f > 0"}`
	for k := range 65 {
		send("/api/query", query, fmt.Sprint("c", k))
		if _, _, got := send("/api/debug", debug, fmt.Sprint("c", k)); !bytes.Contains(got, []byte(`"mode":"full"`)) {
			t.Fatalf("the first debug: %s", got)
		}
	}
	grow, _, _ := appendBody(`{"rows":70,"seed":1,"fresh":1}`) // a new group: the suspect's lineage stands
	sut.do(t.Context(), "/api/append", grow)
	var clean []byte
	for _, mode := range []string{"full", "carried"} {
		session := func(k int) string {
			if mode == "carried" {
				return fmt.Sprint("c", k)
			}
			send("/api/query", query, fmt.Sprint("f", k))
			return fmt.Sprint("f", k)
		}
		s := session(64)
		sut.mem.FailReadAt(0)
		if _, _, clean = send("/api/debug", debug, s); !bytes.Contains(clean, []byte(`"mode":"`+mode+`"`)) {
			t.Fatalf("the clean %s pass: %s", mode, clean)
		}
		n, failed := sut.mem.Reads(), 0
		for i, tries := 0, min(n, 64); i < tries; i++ {
			s := session(i)
			sut.mem.FailReadAt(i*n/tries + 1)
			code, hdr, got := send("/api/debug", debug, s)
			sut.mem.FailReadAt(0)
			if code != http.StatusOK { // else scheduling moved the read past the pass's last
				if err := cmp.Or(sut.invariants(nil), loadFailed(got, hdr)); err != nil {
					t.Fatalf("%s debug with read %d of %d failing: %v", mode, i*n/tries+1, n, err)
				}
				failed++
				_, _, got = send("/api/debug", debug, s)
			}
			if !bytes.Equal(got, clean) {
				t.Fatalf("%s debug after read %d of %d failed: %s\nthe clean pass %s", mode, i*n/tries+1, n, got, clean)
			}
		}
		if failed == 0 {
			t.Fatalf("no read of the %s pass failed (%d reads)", mode, n)
		}
	}
}
