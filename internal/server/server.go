// Package server implements the DBWipes web frontend: a JSON API plus an
// embedded single-page dashboard with the paper's four components —
// query input form, result scatterplot with suspect/example selection,
// error metric form, and the ranked predicate list whose entries can be
// clicked to clean the database and automatically re-run the query
// (Figure 2 of the paper). Every /api response carries a Server-Timing
// header: the request's time per obs stage (lifecycle.go).
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/predicate"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// Server serves the DBWipes dashboard over one engine database.
type Server struct {
	db *engine.DB
	// st, when attached, routes ingest-side mutations (/api/append,
	// /api/retention) through the durable store so they are crash-safe;
	// queries keep reading the engine catalog directly.
	st *store.DB

	// maxSessions and sessionTTL bound the session map (LRU count cap
	// and idle expiry); zero values take the defaults below.
	maxSessions int
	sessionTTL  time.Duration
	// maxBodyBytes caps POST request bodies (413 beyond it); zero takes
	// the default below.
	maxBodyBytes int64
	now          func() time.Time // test hook; defaults to time.Now

	// lc is the request-lifecycle layer: deadlines, admission control
	// and shedding (lifecycle.go).
	lc *lifecycle
	// stats is the one counter registry /api/stats renders: per-endpoint
	// lifecycle counters and stage times, and scan totals (newStats).
	stats *expvar.Map

	mu       sync.Mutex
	sessions map[string]*session
}

// recordScan folds one executed query's plan counters into the
// server-wide scan totals.
func (s *Server) recordScan(p exec.PlanInfo) {
	scan := s.stats.Get("scan").(*expvar.Map)
	scan.Add("queries", 1)
	scan.Add("segs_skipped", int64(p.SegsSkipped))
	scan.Add("chunks_faulted", int64(p.ChunksFaulted))
	scan.Add("chunks_resident", int64(p.ChunksResident))
	scan.Add("conjuncts_skipped", int64(p.FilterShortCircuited))
	if p.ResidualConjuncts > 0 {
		scan.Add("filters_residual", 1)
		scan.Add("residual_rows", int64(p.ResidualRows))
	}
	scan.Add("key_kernels", int64(p.KeyKernels))
	scan.Add("ordered_blocks", int64(p.OrderedBlocks))
}

const (
	defaultMaxSessions  = 1024
	defaultSessionTTL   = 2 * time.Hour
	defaultMaxBodyBytes = 8 << 20 // generous for row batches, stops runaways
	// maxSessionID bounds a session id, which the session map keeps: one
	// request could otherwise pin a body's worth of memory per session.
	maxSessionID = 256
)

// session is one browser's interactive state. Handlers hold the
// session lock across their whole body: two concurrent requests on one
// session id would otherwise race on sql/res/applied/lastDbg (e.g.
// handleClean's append-then-rollback truncation against a concurrent
// query). The lock is a one-slot channel rather than a mutex so
// acquisition is bounded by the request's context (see acquire in
// lifecycle.go): a fired deadline returns 504 instead of queueing on
// a wedged session forever.
type session struct {
	lockCh  chan struct{}
	sql     string
	res     *exec.Result
	resKey  string                // sql + applied predicates res was computed under
	applied []predicate.Predicate // cleaning history (clicked predicates)
	lastDbg *core.DebugResult

	// lastUsed is guarded by Server.mu (not session.mu): eviction scans
	// it while handlers hold individual session locks.
	lastUsed time.Time
}

func newSession() *session { return &session{lockCh: make(chan struct{}, 1)} }

// New creates a server over db.
func New(db *engine.DB) *Server {
	return &Server{db: db, sessions: make(map[string]*session), lc: newLifecycle(Limits{}), stats: newStats()}
}

// AttachStore routes ingest mutations through st: /api/append and
// /api/retention become durable (WAL'd, crash-recoverable), /api/stats
// gains the store's durability report, and Close closes the store.
// Tables registered in the engine but not managed by the store (e.g.
// in-memory demo data) keep the plain engine path.
func (s *Server) AttachStore(st *store.DB) { s.st = st }

// Close flushes and closes the attached store, surfacing fsync/close
// failures — an error here means an acknowledged batch may not be
// durable, which callers must report, not swallow. Without an attached
// store it is a no-op.
func (s *Server) Close() error {
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}

// Handler returns the HTTP handler (mountable under any mux). Every
// /api route runs inside the lifecycle layer: query/debug/clean/reset
// are heavy (admission-controlled, sheddable), suggest/zoom and the
// GET endpoints are light, append/retention are ingest (deadline but
// never queued — shedding a batch the client already buffered would
// just move the retry upstream).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/tables", s.withLifecycle("tables", classLight, s.handleTables))
	mux.HandleFunc("GET /api/metrics", s.withLifecycle("metrics", classLight, s.handleMetrics))
	mux.HandleFunc("POST /api/query", s.withLifecycle("query", classHeavy, s.handleQuery))
	mux.HandleFunc("POST /api/suggest", s.withLifecycle("suggest", classLight, s.handleSuggest))
	mux.HandleFunc("POST /api/zoom", s.withLifecycle("zoom", classLight, s.handleZoom))
	mux.HandleFunc("POST /api/debug", s.withLifecycle("debug", classHeavy, s.handleDebug))
	mux.HandleFunc("POST /api/clean", s.withLifecycle("clean", classHeavy, s.handleClean))
	mux.HandleFunc("POST /api/reset", s.withLifecycle("reset", classHeavy, s.handleReset))
	mux.HandleFunc("POST /api/append", s.withLifecycle("append", classIngest, s.handleAppend))
	mux.HandleFunc("POST /api/retention", s.withLifecycle("retention", classIngest, s.handleRetention))
	mux.HandleFunc("GET /api/stats", s.withLifecycle("stats", classLight, s.handleStats))
	return withRecovery(mux)
}

// decodeJSON decodes a POST body — one JSON value, then nothing but
// whitespace — into v under the server's size cap (withLifecycle sets
// it), writing the error response (413 on an oversized body, 400
// otherwise) and returning false when the request cannot proceed.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	span := obs.Start(r.Context(), obs.Decode)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil || !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("request body holds more than one JSON value")
		}
	}
	span.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d byte limit", tooBig.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, err)
		}
		return false
	}
	return true
}

// lockedSession returns id's session with its lock held, or writes the
// error response and returns nil: an over-long id is a 400 before any
// session exists, a deadline fired while waiting for the lock a 504.
func (s *Server) lockedSession(w http.ResponseWriter, r *http.Request, id string) *session {
	if len(id) > maxSessionID {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("session id longer than %d bytes", maxSessionID))
		return nil
	}
	sess := s.session(id)
	if err := sess.acquire(r.Context()); err != nil {
		writeReqErr(s, w, err)
		return nil
	}
	return sess
}

// session returns (creating if needed) the session for id, stamping its
// recency and evicting expired / least-recently-used entries so the map
// stays bounded under many-users traffic. The caller must lock the
// returned session's mu before touching its state.
func (s *Server) session(id string) *session {
	if id == "" {
		id = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.now != nil {
		now = s.now()
	}
	ttl := s.sessionTTL
	if ttl <= 0 {
		ttl = defaultSessionTTL
	}
	max := s.maxSessions
	if max <= 0 {
		max = defaultMaxSessions
	}
	sess, ok := s.sessions[id]
	if !ok {
		sess = newSession()
		s.sessions[id] = sess
	}
	sess.lastUsed = now

	// TTL sweep: drop idle sessions. Evicting only removes the map
	// entry; a handler still holding the session finishes unharmed and
	// a later request simply starts a fresh session.
	for k, v := range s.sessions {
		if k != id && now.Sub(v.lastUsed) > ttl {
			delete(s.sessions, k)
		}
	}
	// LRU cap: evict the least recently used until under the bound.
	for len(s.sessions) > max {
		var oldest string
		var oldestAt time.Time
		first := true
		for k, v := range s.sessions {
			if k == id {
				continue
			}
			if first || v.lastUsed.Before(oldestAt) {
				oldest, oldestAt, first = k, v.lastUsed, false
			}
		}
		if first {
			break // only the current session remains
		}
		delete(s.sessions, oldest)
	}
	return sess
}

// writeJSON encodes before it commits to a status: a value the encoder
// refuses is a JSON 500, never a 200 with half a body. The encode is the
// request's last stage, so the Server-Timing header includes it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	tw, _ := w.(timedWriter)
	span := tw.rec.Start(obs.Encode)
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	span.End()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n")) // as json.Encoder ends a value
}

// finiteJSON is f as JSON can carry it: NaN and ±Inf become null.
func finiteJSON(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return f
}

// finitePoints reports whether every coordinate is finite.
func finitePoints(pts [][2]float64) bool {
	for _, p := range pts {
		if finiteJSON(p[0]) == nil || finiteJSON(p[1]) == nil {
			return false
		}
	}
	return true
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	type col struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	out := map[string][]col{}
	for _, name := range s.db.Names() {
		t, err := s.db.Table(name)
		if err != nil {
			continue
		}
		var cols []col
		for _, c := range t.Schema() {
			cols = append(cols, col{c.Name, c.Type.String()})
		}
		out[name] = cols
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, errmetric.Specs())
}

// queryPayload is the shared response shape of /api/query and
// /api/clean. A non-finite float cell (avg(sqrt(x - 1000)), sum(ln(x)),
// max(exp(100*x))) serializes as null, like NULL: JSON has no NaN or ±Inf.
type queryPayload struct {
	SQL       string   `json:"sql"`
	Columns   []string `json:"columns"`
	Types     []string `json:"types"`
	Rows      [][]any  `json:"rows"`
	AggCols   []int    `json:"aggCols"`
	Applied   []string `json:"applied"`
	Truncated bool     `json:"truncated"`
	// PCA holds the two-principal-component projection of the groups
	// (paper §2.2.1's proposed multi-attribute visualization), present
	// when the result has 3+ numeric columns and the projection is finite;
	// PCAExplained reports the variance ratio captured by each axis.
	PCA          [][2]float64 `json:"pca,omitempty"`
	PCAExplained *[2]float64  `json:"pcaExplained,omitempty"`
}

const maxRowsOut = 5000

func (s *Server) buildPayload(sess *session) *queryPayload {
	res := sess.res
	p := &queryPayload{SQL: sess.sql, AggCols: res.AggOrdinals()}
	for _, c := range res.Table.Schema() {
		p.Columns = append(p.Columns, c.Name)
		p.Types = append(p.Types, c.Type.String())
	}
	n := res.Table.NumRows()
	if n > maxRowsOut {
		n = maxRowsOut
		p.Truncated = true
	}
	for i := 0; i < n; i++ {
		row := res.Table.Row(i)
		jsRow := make([]any, len(row))
		for c, v := range row {
			jsRow[c] = valueJSON(v)
		}
		p.Rows = append(p.Rows, jsRow)
	}
	for _, ap := range sess.applied {
		p.Applied = append(p.Applied, ap.String())
	}
	// Multi-attribute results additionally get the paper's proposed
	// PCA view. Only computed for the rows actually shipped.
	numeric := 0
	for _, c := range res.Table.Schema() {
		if c.Type.IsNumeric() {
			numeric++
		}
	}
	if numeric >= 3 && !p.Truncated {
		// Finite cells can still overflow the projection: JSON carries no
		// NaN or ±Inf, so such a view is left out.
		if proj, explained, err := core.PCAGroups(res); err == nil && finitePoints(proj) && finitePoints([][2]float64{explained}) {
			p.PCA = proj
			p.PCAExplained = &explained
		}
	}
	return p
}

func valueJSON(v engine.Value) any {
	switch v.T {
	case engine.TNull:
		return nil
	case engine.TBool:
		return v.Bool()
	case engine.TInt:
		return v.I
	case engine.TFloat:
		return finiteJSON(v.F)
	case engine.TTime:
		return v.Time().Format("2006-01-02T15:04:05Z")
	default:
		return v.S
	}
}

// cleanKey identifies the (sql, applied predicates) pair a cached
// result was computed under; a re-query with the same key over a grown
// version of the same source table can advance incrementally.
func cleanKey(sql string, applied []predicate.Predicate) string {
	var b strings.Builder
	b.WriteString(sql)
	for _, p := range applied {
		b.WriteString("\x1f")
		b.WriteString(p.String())
	}
	return b.String()
}

// runWithCleaning executes sql with the session's cleaning predicates
// appended as WHERE NOT (...) conjuncts. When the statement and
// cleaning set are unchanged and the source table is another version of
// the cached result's (the streaming /api/append and /api/retention
// path), the cached result is advanced (exec.AdvanceCtx): it folds in just
// the appended rows, or re-runs when retention moved the base.
func (s *Server) runWithCleaning(ctx context.Context, sess *session, sql string) error {
	key := cleanKey(sql, sess.applied)
	if sess.res != nil && sess.resKey == key {
		if src, err := s.db.Table(sess.res.Stmt.From); err == nil && src.SameFamily(sess.res.Source) {
			res, err := exec.AdvanceCtx(ctx, sess.res, src)
			if err == nil {
				s.recordScan(res.Plan)
				sess.sql = sql
				sess.res = res
				// lastDbg survives: its carried analysis advances with
				// the result (core.DebugAdvance, which runs a full Debug
				// across a retention horizon), closing the
				// append → advance → re-debug monitoring loop.
				return nil
			}
			if ctx.Err() != nil {
				// A cancelled advance never writes sess.res, so a retry
				// on it is bit-identical (see exec.AdvanceCtx); don't
				// burn a full rescan on a request that is already dead.
				return err
			}
			// Any other advance error (a chunk-load failure, say)
			// falls through to the full run below.
		}
	}
	span := obs.Start(ctx, obs.Parse)
	stmt, err := sqlparse.Parse(sql)
	span.End()
	if err != nil {
		return err
	}
	src, err := s.db.Table(stmt.From)
	if err != nil {
		return err
	}
	res, err := exec.Run(ctx, src, core.Cleaned(stmt, sess.applied...))
	if err != nil {
		return err
	}
	s.recordScan(res.Plan)
	sess.sql = sql
	sess.res = res
	sess.resKey = key
	sess.lastDbg = nil
	return nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		SQL     string `json:"sql"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	if err := s.runWithCleaning(r.Context(), sess, req.SQL); err != nil {
		writeReqErr(s, w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.buildPayload(sess))
}

// handleSuggest implements the paper's dynamic Error Metric Form: given
// the highlighted suspect groups it returns the offered metrics together
// with a prefilled expected value c — the median of the *non-suspect*
// groups' aggregate, i.e. "what this aggregate normally looks like".
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Suspect []int  `json:"suspect"`
		AggItem int    `json:"aggItem"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	if sess.res == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("no query executed yet"))
		return
	}
	ords := sess.res.AggOrdinals()
	if len(ords) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("query has no aggregates"))
		return
	}
	// aggItem reads as /api/debug reads it: 0 (the JSON default) or
	// negative is the first aggregate, and a group key is refused.
	ord, err := core.AggOrdinal(sess.res, cmp.Or(req.AggItem, -1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	col := ords[ord]
	inS := make(map[int]bool, len(req.Suspect))
	for _, i := range req.Suspect {
		inS[i] = true
	}
	var rest, suspects []float64
	for i := 0; i < sess.res.Table.NumRows(); i++ {
		v := sess.res.Table.Value(i, col)
		if v.IsNull() {
			continue
		}
		if inS[i] {
			suspects = append(suspects, v.Float())
		} else {
			rest = append(rest, v.Float())
		}
	}
	suggested := errmetric.SuggestReference(rest)
	// Offer the directional metric matching how the suspects deviate.
	recommended := "notequal"
	if len(suspects) > 0 {
		sMed := errmetric.SuggestReference(suspects)
		if sMed > suggested {
			recommended = "toohigh"
		} else if sMed < suggested {
			recommended = "toolow"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics":     errmetric.Specs(),
		"suggestedC":  finiteJSON(suggested),
		"recommended": recommended,
	})
}

func (s *Server) handleZoom(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		Suspect []int  `json:"suspect"`
		Limit   int    `json:"limit"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	if sess.res == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("no query executed yet"))
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > 20000 {
		limit = 20000
	}
	// A chunk-load failure while the provenance builds is a 503, like one
	// while zoomRows reads the rows.
	prov, err := sess.res.Provenance(r.Context())
	if err != nil {
		writeReqErr(s, w, err)
		return
	}
	lineage := prov.Lineage(req.Suspect)
	truncated := false
	if len(lineage) > limit {
		lineage = lineage[:limit]
		truncated = true
	}
	src := sess.res.Source
	var cols []string
	for _, c := range src.Schema() {
		cols = append(cols, c.Name)
	}
	rows, err := zoomRows(src, lineage)
	if err != nil {
		writeReqErr(s, w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"columns":   append([]string{"_rowid"}, cols...),
		"rows":      rows,
		"truncated": truncated,
	})
}

// zoomRows renders the lineage rows of src as JSON rows, row id first
// (so D' selections can reference it). A segment that fails to load
// (a read-time checksum failure, a quarantined file) is its error, not
// a panic.
func zoomRows(src *engine.Table, lineage []int) (rows [][]any, err error) {
	defer engine.CatchSegmentLoad(&err)
	rr := src.NewRowReader() // one pin per column per segment crossing, not one per cell
	defer rr.Close()
	row := make([]engine.Value, src.NumCols())
	rows = make([][]any, 0, len(lineage))
	for _, ri := range lineage {
		rr.RowInto(ri, row)
		jsRow := make([]any, 0, len(row)+1)
		jsRow = append(jsRow, ri)
		for _, v := range row {
			jsRow = append(jsRow, valueJSON(v))
		}
		rows = append(rows, jsRow)
	}
	return rows, nil
}

// explanationJSON is one ranked predicate over the wire; its floats pass
// through finiteJSON.
type explanationJSON struct {
	Predicate      string `json:"predicate"`
	Score          any    `json:"score"` // the three floats through finiteJSON
	ErrImprovement any    `json:"errImprovement"`
	F1             any    `json:"f1"`
	NumTuples      int    `json:"numTuples"`
	Origin         string `json:"origin"`
	CleanedSQL     string `json:"cleanedSql"`
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session      string             `json:"session"`
		Suspect      []int              `json:"suspect"`
		AggItem      int                `json:"aggItem"`
		Metric       string             `json:"metric"`
		MetricParams map[string]float64 `json:"metricParams"`
		// ExamplesCond is a SQL condition over source columns selecting
		// D' within the suspect lineage (e.g. "temperature > 100").
		ExamplesCond string `json:"examplesCond"`
		// ExampleRows lists explicit D' row ids (from /api/zoom).
		ExampleRows []int `json:"exampleRows"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	if sess.res == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("no query executed yet"))
		return
	}
	// Streaming sessions: when the source table moved since the cached
	// result (an /api/append landed, or /api/retention dropped head
	// segments), refresh the result first so the debug explains the
	// table as it is — runWithCleaning folds in only the appended batch
	// and keeps lastDbg's carried analysis alive, or re-runs across a
	// retention horizon.
	//
	// The client's suspect indexes point into the result it SAW; after
	// the refresh re-materializes HAVING/ORDER BY/LIMIT over the new
	// table, the same output row number can be a different group. The
	// indexes are therefore remapped by group identity — the stream row
	// id of its first row, FirstRow + Base(), which retention does not
	// move — across the refresh; a selected group that no longer
	// materializes, or lost its first row to retention, is an error
	// asking the client to re-query, never a silent answer about a
	// different group.
	if sess.sql != "" {
		old := sess.res
		if src, err := s.db.Table(old.Stmt.From); err == nil && src.SameFamily(old.Source) &&
			(src.Version() != old.Source.Version() || src.Base() != old.Source.Base()) {
			var firstRows []int
			if len(req.Suspect) > 0 {
				firstRows = make([]int, 0, len(req.Suspect))
				for _, ri := range req.Suspect {
					if ri < 0 || ri >= len(old.Groups) {
						firstRows = nil // let Debug report the bad index
						break
					}
					firstRows = append(firstRows, old.Groups[ri].FirstRow+old.Source.Base())
				}
			}
			if err := s.runWithCleaning(r.Context(), sess, sess.sql); err != nil {
				writeReqErr(s, w, err)
				return
			}
			if firstRows != nil {
				base := sess.res.Source.Base()
				byFirst := make(map[int]int, len(sess.res.Groups))
				for ri, g := range sess.res.Groups {
					if _, dup := byFirst[g.FirstRow+base]; !dup {
						byFirst[g.FirstRow+base] = ri
					}
				}
				remapped := make([]int, len(firstRows))
				for i, fr := range firstRows {
					ri, ok := byFirst[fr]
					if !ok {
						writeErr(w, http.StatusConflict, fmt.Errorf(
							"the result changed while ingesting: suspect group %d is no longer in the output; re-run the query", req.Suspect[i]))
						return
					}
					remapped[i] = ri
				}
				req.Suspect = remapped
			}
		}
	}
	metric, err := errmetric.New(req.Metric, req.MetricParams)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	examples := req.ExampleRows
	if len(examples) == 0 && strings.TrimSpace(req.ExamplesCond) != "" {
		examples, err = core.ExamplesWhereCtx(r.Context(), sess.res, req.Suspect, req.ExamplesCond)
		if err != nil {
			writeReqErr(s, w, err) // a bad condition is its plain 400
			return
		}
	}
	// DebugAdvance carries the previous debug's analysis forward when
	// the session's result advanced incrementally (nil lastDbg or any
	// incompatibility falls back to a full Debug internally).
	dr, err := core.DebugAdvance(sess.lastDbg, core.DebugRequest{
		Ctx:      r.Context(),
		Result:   sess.res,
		AggItem:  cmp.Or(req.AggItem, -1), // 0, the JSON default, is the first aggregate
		Suspect:  req.Suspect,
		Examples: examples,
		Metric:   metric,
	})
	if err != nil {
		// A cancelled debug leaves sess.lastDbg untouched: the carried
		// analysis stays valid for the retry (core.DebugAdvance).
		writeReqErr(s, w, err)
		return
	}
	sess.lastDbg = dr
	out := struct {
		Eps          any               `json:"eps"`
		LineageSize  int               `json:"lineageSize"`
		Incremental  bool              `json:"incremental"`
		Mode         string            `json:"mode"`
		Explanations []explanationJSON `json:"explanations"`
	}{Eps: finiteJSON(dr.Eps), LineageSize: len(dr.F), Incremental: dr.Plan.Mode == "carried", Mode: dr.Plan.Mode}
	for _, e := range dr.Explanations {
		out.Explanations = append(out.Explanations, explanationJSON{
			Predicate:      e.Pred.String(),
			Score:          finiteJSON(e.Score),
			ErrImprovement: finiteJSON(e.ErrImprovement),
			F1:             finiteJSON(e.F1),
			NumTuples:      e.NumTuples,
			Origin:         e.Origin,
			CleanedSQL:     core.Cleaned(sess.res.Stmt, e.Pred).String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
		// Explanation indexes into the last /api/debug response.
		Explanation *int `json:"explanation"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	if sess.res == nil || sess.lastDbg == nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("debug first, then clean"))
		return
	}
	if req.Explanation == nil || *req.Explanation < 0 || *req.Explanation >= len(sess.lastDbg.Explanations) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("explanation index out of range"))
		return
	}
	pred := sess.lastDbg.Explanations[*req.Explanation].Pred
	sess.applied = append(sess.applied, pred)
	if err := s.runWithCleaning(r.Context(), sess, sess.sql); err != nil {
		sess.applied = sess.applied[:len(sess.applied)-1]
		writeReqErr(s, w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.buildPayload(sess))
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Session string `json:"session"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	sess := s.lockedSession(w, r, req.Session)
	if sess == nil {
		return
	}
	defer sess.release()
	sess.applied = nil
	sess.lastDbg = nil
	if sess.sql != "" {
		if err := s.runWithCleaning(r.Context(), sess, sess.sql); err != nil {
			writeReqErr(s, w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.buildPayload(sess))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleRetention applies a retention policy to a table through the
// engine's whole-segment drop path (engine.DB.Retain) and atomically
// republishes the retained version. In-flight queries keep their
// snapshots; session results cached over the old window advance across
// the horizon on their next request (rebasing when the carried state
// allows it, re-running otherwise — see exec.AdvanceCtx).
func (s *Server) handleRetention(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Table   string  `json:"table"`
		MaxRows int     `json:"max_rows"`
		TimeCol string  `json:"time_col"`
		Cutoff  float64 `json:"cutoff"`
	}
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Table == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("retention needs a table"))
		return
	}
	if req.MaxRows <= 0 && req.TimeCol == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("retention needs max_rows or time_col+cutoff"))
		return
	}
	nt, stats, err := s.retainRows(r.Context(), req.Table, engine.RetentionPolicy{
		MaxRows: req.MaxRows, TimeCol: req.TimeCol, Cutoff: req.Cutoff,
	})
	if err != nil {
		writeReqErr(s, w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":             nt.Name(),
		"dropped_segments":  stats.DroppedSegments,
		"dropped_rows":      stats.DroppedRows,
		"retained_segments": stats.RetainedSegments,
		"rows":              nt.NumRows(),
		"base":              nt.Base(),
		"version":           nt.Version(),
	})
}

// retainRows is appendBatch's retention twin: durable (manifested,
// segment files unlinked) through the store, in-memory otherwise.
func (s *Server) retainRows(ctx context.Context, table string, pol engine.RetentionPolicy) (*engine.Table, engine.RetainStats, error) {
	if s.st != nil {
		nt, stats, err := s.st.RetainCtx(ctx, table, pol)
		if err == nil || !errors.Is(err, store.ErrUnknownTable) {
			return nt, stats, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, engine.RetainStats{}, fmt.Errorf("server: retain %s: %w", table, err)
	}
	return s.db.Retain(table, pol)
}

// sessionStats is one session's storage footprint in /api/stats.
type sessionStats struct {
	Session  string `json:"session"`
	Table    string `json:"table,omitempty"`
	Rows     int    `json:"rows"`
	Base     int    `json:"base"`
	Segments int    `json:"segments"`
	Bytes    int    `json:"approx_bytes"`
	// Busy marks a session whose lock was held by an in-flight request
	// when stats ran; its footprint is omitted rather than blocking.
	Busy bool `json:"busy,omitempty"`
}

// handleStats reports the storage footprint retention is managing: per
// registered table and per live session (the table version its cached
// result still pins — the number that shows whether old windows are
// being held alive), as retained segment counts and approximate
// resident bytes.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type tableStats struct {
		Rows     int `json:"rows"`
		Base     int `json:"base"`
		Segments int `json:"segments"`
		Bytes    int `json:"approx_bytes"`
	}
	tables := make(map[string]tableStats)
	for _, name := range s.db.Names() {
		t, err := s.db.Table(name)
		if err != nil {
			continue
		}
		segs, bytes := t.MemStats()
		tables[name] = tableStats{Rows: t.NumRows(), Base: t.Base(), Segments: segs, Bytes: bytes}
	}

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	sesss := make([]*session, 0, len(s.sessions))
	for id, sess := range s.sessions {
		ids = append(ids, id)
		sesss = append(sesss, sess)
	}
	s.mu.Unlock()

	out := make([]sessionStats, 0, len(ids))
	for i, sess := range sesss {
		st := sessionStats{Session: ids[i]}
		if sess.tryAcquire() {
			if sess.res != nil && sess.res.Source != nil {
				src := sess.res.Source
				segs, bytes := src.MemStats()
				st.Table = src.Name()
				st.Rows = src.NumRows()
				st.Base = src.Base()
				st.Segments = segs
				st.Bytes = bytes
			}
			sess.release()
		} else {
			st.Busy = true
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	payload := map[string]any{"tables": tables, "sessions": out}
	// The registry's sections: endpoints, stages and scan (newStats).
	s.stats.Do(func(kv expvar.KeyValue) { payload[kv.Key] = json.RawMessage(kv.Value.String()) })
	if s.st != nil {
		// Durability report: per-table on-disk segment counts plus any
		// quarantined files, recovery gaps or fail-stops — the operator's
		// view of whether the disk still matches what was acknowledged.
		payload["store"] = s.st.Stats()
	}
	writeJSON(w, http.StatusOK, payload)
}
