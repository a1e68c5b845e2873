package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/influence"
	"repro/internal/predicate"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

// The traced run attributes the end-to-end numbers to layers without
// adding a span to the program: every span is recorded here, around a
// call into a layer's public functions. After a (shorter) window over
// HTTP it stops the server and replays client 0's script in process,
// flow by flow, twice:
//
//   - through server.New(db).Handler().ServeHTTP on state A, which
//     gives each endpoint's whole handle time, and
//   - on a separate but identical state B by calling what the handler
//     calls (sqlparse.Parse, exec.RunCtx or AdvanceCtx, core.
//     DebugAdvance, store.AppendCtx, ...), which gives the layers'
//     times; B's store does its I/O through a store.FS that times and
//     counts every call.
//
// Two states rather than one so neither pass finds the other's clause
// masks, carried results or buffer-pool contents already in place. A
// request's self time is its handle time minus its own child spans:
// JSON decode and encode, payload building, the session lock.

// span is one timed call. Spans of one request share Req; Parent is
// the index of the span that caused this one, -1 for a request's root.
type span struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the replay began
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
}

// tracer keeps spans in memory until the run ends. The replay itself
// is one goroutine, but the executor's scan shards call the traced FS
// from theirs, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // the replay goroutine's stack of open spans
	req   int
	// fsMS accumulates traced-FS time, so a layer span can subtract
	// the store I/O that happened inside it.
	fsMS float64
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) begin(name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartUS: t.us(now), Parent: parent, Req: t.req})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which must be id, optionally
// renaming it (a debug's mode is only known once it returns), and
// returns its duration in ms.
func (t *tracer) end(id int, rename string) float64 {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndUS = t.us(now)
	if rename != "" {
		s.Name = rename
	}
	return (s.EndUS - s.StartUS) / 1000
}

// leaf records a finished call made from any goroutine, as a child of
// whatever span the replay has open.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := t.us(start)
	t.spans = append(t.spans, span{Name: name, StartUS: s, EndUS: s + float64(d)/float64(time.Microsecond), Parent: parent, Req: t.req})
	t.fsMS += float64(d) / float64(time.Millisecond)
}

func (t *tracer) fsSoFar() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fsMS
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedFS is store.OSFS with every call timed as a leaf span and
// reads, writes and syncs counted.
type tracedFS struct {
	store.OSFS
	tr *tracer

	mu sync.Mutex
	n  fsCounts
}

type fsCounts struct {
	reads, writes, syncs    int
	readBytes, writtenBytes int64
}

func (f *tracedFS) count(reads, writes, syncs int, rb, wb int) {
	f.mu.Lock()
	f.n.reads, f.n.writes, f.n.syncs = f.n.reads+reads, f.n.writes+writes, f.n.syncs+syncs
	f.n.readBytes, f.n.writtenBytes = f.n.readBytes+int64(rb), f.n.writtenBytes+int64(wb)
	f.mu.Unlock()
}

func (f *tracedFS) counts() fsCounts {
	if f == nil {
		return fsCounts{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *tracedFS) ReadAt(name string, off int64, p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.OSFS.ReadAt(name, off, p)
	f.tr.leaf("store.fs_read", t0, time.Since(t0))
	f.count(1, 0, 0, n, 0)
	return n, err
}

func (f *tracedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.OSFS.SyncDir(dir)
	f.tr.leaf("store.fs_sync", t0, time.Since(t0))
	f.count(0, 0, 1, 0, 0)
	return err
}

func (f *tracedFS) wrap(file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Create(name string) (store.File, error) { return f.wrap(f.OSFS.Create(name)) }
func (f *tracedFS) Open(name string) (store.File, error)   { return f.wrap(f.OSFS.Open(name)) }
func (f *tracedFS) OpenAppend(name string) (store.File, error) {
	return f.wrap(f.OSFS.OpenAppend(name))
}

type tracedFile struct {
	store.File
	fs *tracedFS
}

func (f *tracedFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.fs.tr.leaf("store.fs_read", t0, time.Since(t0))
	f.fs.count(1, 0, 0, n, 0)
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.leaf("store.fs_write", t0, time.Since(t0))
	f.fs.count(0, 1, 0, 0, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.tr.leaf("store.fs_sync", t0, time.Since(t0))
	f.fs.count(0, 0, 1, 0, 0)
	return err
}

// handlerTransport serves a request in process, timed as the root span
// server.<endpoint>.
func handlerTransport(h http.Handler, tr *tracer) transport {
	return func(r *request) (int, []byte, time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/api/"+r.op, bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		tr.mu.Lock()
		tr.req++
		r.traceID = tr.req
		tr.mu.Unlock()
		id := tr.begin("server." + r.op)
		h.ServeHTTP(rec, req)
		ms := tr.end(id, "")
		return rec.Code, rec.Body.Bytes(), time.Duration(ms * float64(time.Millisecond)), nil
	}
}

// layerSession is the direct pass's copy of the server's session state.
type layerSession struct {
	sql     string
	res     *exec.Result
	dbg     *core.DebugResult
	applied []predicate.Predicate
}

// layers is the direct pass: it does to state B what the handlers do
// to state A, one layer call per span.
type layers struct {
	tr   *tracer
	db   *engine.DB
	st   *store.DB  // nil when B is in memory
	mem  *engine.DB // stream_monitor: an in-memory twin, for the engine's own share of append and retain
	fs   *tracedFS
	sess map[string]*layerSession

	ms      map[string][]float64 // span name → durations of measured requests
	byShape latencies            // measured query requests by shape: handle_<shape>, self_<shape>, exec_<shape>
	flowMS  map[string]float64   // layer → total over measured flows, store I/O taken out of the layer it happened in
	n       map[string]float64   // counts over measured requests

	warm    bool
	fsWarm  fsCounts // the FS counters when the warm-up ended
	childMS float64  // the current request's time in the layers its handler calls
	lastMS  float64  // the span that returned last
}

// timed runs f as a span of a call the handler makes too. The layer's
// flow total excludes store I/O done inside the call, which goes to
// the store's.
func (l *layers) timed(name string, f func() (rename string, err error)) error {
	fs0 := l.tr.fsSoFar()
	ms, name, err := l.span(name, f)
	l.childMS += ms
	if !l.warm && err == nil {
		layer, _, _ := strings.Cut(name, ".")
		io := l.tr.fsSoFar() - fs0
		if layer != "store" {
			l.flowMS["store"] += io
			ms -= io
		}
		l.flowMS[layer] += ms
	}
	return err
}

// span runs f as a span and keeps its duration under the span's name.
// Called directly it is for calls the handler does not make as such: a
// layer timed on its own, outside any request's account.
func (l *layers) span(name string, f func() (rename string, err error)) (float64, string, error) {
	id := l.tr.begin(name)
	rename, err := f()
	ms := l.tr.end(id, rename)
	l.lastMS = ms
	if rename != "" {
		name = rename
	}
	if !l.warm && err == nil {
		l.ms[name] = append(l.ms[name], ms)
		if strings.HasPrefix(name, "engine.") {
			l.flowMS["engine"] += ms // nested in the store's share, reported beside it
		}
	}
	return ms, name, err
}

func (l *layers) session(id string) *layerSession {
	s := l.sess[id]
	if s == nil {
		s = &layerSession{}
		l.sess[id] = s
	}
	return s
}

// query mirrors the server's runWithCleaning: carry the session's
// result when the statement is unchanged and the table has only grown,
// otherwise parse and run.
func (l *layers) query(s *layerSession, r *request, runSpan string) error {
	ctx := context.Background()
	if s.res != nil && s.sql == r.sql && runSpan != "exec.run_clean" {
		if src, err := l.db.Table(s.res.Stmt.From); err == nil && src.SameFamily(s.res.Source) && src.NumRows() >= s.res.Source.NumRows() {
			var res *exec.Result
			err := l.timed("exec.advance", func() (string, error) {
				var err error
				res, err = exec.AdvanceCtx(ctx, s.res, src)
				return "", err
			})
			if err == nil {
				s.res = res
				l.plan(res, r.tag)
				return nil
			}
		}
	}
	var stmt *sqlparse.SelectStmt
	if err := l.timed("sqlparse.parse", func() (string, error) {
		var err error
		stmt, err = sqlparse.Parse(r.sql)
		return "", err
	}); err != nil {
		return err
	}
	for _, p := range s.applied {
		stmt.Where = expr.And(stmt.Where, p.NegationExpr())
	}
	var res *exec.Result
	if err := l.timed(runSpan, func() (string, error) {
		var err error
		res, err = exec.RunCtx(ctx, l.db, stmt)
		return "", err
	}); err != nil {
		return err
	}
	s.sql, s.res, s.dbg = r.sql, res, nil
	l.plan(res, r.tag)
	if !l.warm {
		l.n["exec.rows"] += float64(res.Source.NumRows())
		l.n["exec.run_ms"] += l.lastMS
	}
	return nil
}

// plan counts which path the execution that just returned took, from
// its public PlanInfo, and files its time under the query's shape.
func (l *layers) plan(res *exec.Result, shape string) {
	if l.warm {
		return
	}
	if shape != "" { // a query request, not a clean's re-run
		l.byShape["exec_"+shape] = append(l.byShape["exec_"+shape], l.lastMS)
	}
	p := res.Plan
	flag := func(name string, on bool) {
		if on {
			l.n[name]++
		}
	}
	if p.Incremental {
		l.n["exec.advances"]++
		l.n["exec.advance_incremental"]++
		flag("exec.sort_carried", p.SortCarried)
		return
	}
	l.n["exec.runs"]++
	flag("exec.vectorized", p.Vectorized)
	flag("exec.fallback", p.Fallback != "")
	flag("exec.where_lowered", p.WhereLowered)
	flag("exec.masked_agg", p.MaskedAgg)
	flag("exec.filter_short_circuit", p.FilterShortCircuited > 0)
	l.n["exec.residual_rows"] += float64(p.ResidualRows)
	l.n["exec.shards"] += float64(p.Shards)
	l.n["exec.segs_skipped"] += float64(p.SegsSkipped)
	l.n["exec.chunks_faulted"] += float64(p.ChunksFaulted)
}

// do plays one request of a flow the handler pass has already played
// (so its suspects are bound).
func (l *layers) do(r *request) error {
	l.tr.mu.Lock()
	l.tr.req = r.traceID
	l.tr.mu.Unlock()
	l.childMS = 0
	root := l.tr.begin("layers." + r.op)
	defer l.tr.end(root, "")
	s := l.session(r.session)
	switch r.op {
	case "query":
		span := "exec.run"
		if r.tag != "" && r.tag != "carried" {
			span = "exec.run_" + r.tag
		}
		return l.query(s, r, span)
	case "suggest":
		return nil // the handler calls no layer below it: all self time
	case "zoom":
		return l.timed("exec.lineage", func() (string, error) {
			s.res.Lineage(r.suspect)
			return "", nil
		})
	case "debug":
		var req core.DebugRequest
		if err := l.timed("core.examples", func() (string, error) {
			var err error
			req, err = debugRequest(s.res, r, r.suspect)
			return "", err
		}); err != nil {
			return err
		}
		var dr *core.DebugResult
		if err := l.timed("core.debug", func() (string, error) {
			var err error
			if dr, err = core.DebugAdvance(s.dbg, req); err != nil {
				return "", err
			}
			if dr.Plan.Mode != "full" {
				return "core.debug_" + dr.Plan.Mode, nil
			}
			return "", nil
		}); err != nil {
			return err
		}
		s.dbg = dr
		if l.warm {
			return nil
		}
		l.n["core.debugs"]++
		l.n["core.debug_"+dr.Plan.Mode]++
		l.n["core.candidates"] += float64(dr.Candidates)
		l.n["core.lineage_rows"] += float64(len(dr.F))
		for stage, d := range dr.Timings {
			l.ms["core.debug_"+stage] = append(l.ms["core.debug_"+stage], float64(d)/float64(time.Millisecond))
			l.n["core.stage_ms."+stage] += float64(d) / float64(time.Millisecond)
		}
		if dr.Plan.Mode == "full" {
			// The preprocess stage on its own: the leave-one-out pass
			// straight from the influence package.
			_, _, err := l.span("influence.rank", func() (string, error) {
				_, err := influence.Rank(s.res, r.suspect, 0, req.Metric, influence.Options{})
				return "", err
			})
			return err
		}
		return nil
	case "clean":
		s.applied = append(s.applied, s.dbg.Explanations[0].Pred)
		return l.query(s, r, "exec.run_clean")
	case "append":
		rows := appendValues(r.rows)
		before, err := l.db.Table("readings")
		if err != nil {
			return err
		}
		if err := l.timed("store.append", func() (string, error) {
			nt, err := l.st.AppendCtx(context.Background(), "readings", rows)
			if err == nil && nt.Version()>>engine.DefaultSegmentBits != before.Version()>>engine.DefaultSegmentBits {
				return "store.seal_append", nil // this batch crossed a segment boundary
			}
			return "", err
		}); err != nil {
			return err
		}
		if !l.warm {
			l.n["store.batches"]++
			l.n["store.rows"] += float64(len(rows))
		}
		_, _, err = l.span("engine.append", func() (string, error) {
			_, err := l.mem.Append("readings", rows)
			return "", err
		})
		return err
	case "retention":
		pol := engine.RetentionPolicy{MaxRows: r.maxRows}
		if err := l.timed("store.retain", func() (string, error) {
			_, _, err := l.st.RetainCtx(context.Background(), "readings", pol)
			return "", err
		}); err != nil {
			return err
		}
		_, _, err := l.span("engine.retain", func() (string, error) {
			_, _, err := l.mem.Retain("readings", pol)
			return "", err
		})
		return err
	}
	return fmt.Errorf("layers: no replay for %s", r.op)
}

// copyDir copies the regular files of a store directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

func quietLogf(string, ...any) {}

// runTraced is one traced run: a single set-up, a window over HTTP of
// half the script (for the end-to-end side of the overhead figures and
// the server's own counters), then the in-process replay of the same
// number of client-0 flows through the handler and through the layers.
func (h *harness) runTraced(ctx context.Context, w *workload, seed int64, seconds int) (*runResult, error) {
	half := (seconds + 1) / 2
	flows := w.flows(half)
	ls, err := h.setUp(ctx, w, seed, 0)
	if err != nil {
		return nil, err
	}
	defer ls.tearDown()
	win, err := ls.measure(ctx, flows, 3*half)
	if err != nil {
		return nil, err
	}
	ls.verify(newOracle(ls.fx.db))
	res := newRunResult(w, seed, seconds, flows, true)
	m := metrics(res.Metrics)
	m.set("dbwipes.start_ms", ls.startMS)
	m.set("datasets.generate_ms", ls.fx.genMS)
	endToEnd(ls.recs, win, m, res).percentiles(m, 90)
	statsDelta(win, m)
	if err := ls.proc.stop(); err != nil {
		return nil, err
	}
	ls.proc = nil

	tr := &tracer{t0: time.Now()}
	l := &layers{tr: tr, sess: map[string]*layerSession{}, ms: map[string][]float64{}, byShape: latencies{}, flowMS: map[string]float64{}, n: map[string]float64{}}
	var handler http.Handler
	sc := w.script(seed, 0, ls.fx)
	if w.durable {
		opts := store.Options{SyncEvery: 1, MaxResidentBytes: w.cacheBytes, Logf: quietLogf}
		stA, err := store.Open(ls.data, opts)
		if err != nil {
			return nil, err
		}
		defer stA.Close()
		dataB := filepath.Join(ls.dir, "data-b")
		if err := copyDir(ls.data, dataB); err != nil {
			return nil, err
		}
		l.fs = &tracedFS{tr: tr}
		opts.FS = l.fs
		id := tr.begin("store.open")
		l.st, err = store.Open(dataB, opts)
		m.set("store.open_ms", tr.end(id, ""))
		if err != nil {
			return nil, err
		}
		defer l.st.Close()
		l.db = l.st.Eng()
		srv := server.New(stA.Eng())
		srv.AttachStore(stA)
		handler = srv.Handler()
		if w.kind == "stream" {
			// The monitoring loop goes on where the HTTP window
			// stopped; the oracle's twin, which the verification
			// brought to the same rows, serves as the in-memory engine.
			sc, l.mem = ls.scs[0], ls.fx.db
		}
	} else {
		handler = server.New(w.generate().db).Handler()
		l.db = w.generate().db
	}

	rec := newRecorder(0)
	send := handlerTransport(handler, tr)
	// The replay plays each flow twice on one goroutine, so it gets a
	// longer leash than the window it mirrors.
	deadline := time.Now().Add(10 * time.Duration(half) * time.Second)
	var handleFlowMS []float64
	for i := 0; i < w.warmFlows+flows && time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if l.warm = i < w.warmFlows; !l.warm && i == w.warmFlows {
			l.fsWarm = l.fs.counts()
		}
		flow := sc.next()
		first := len(rec.samples)
		rec.runFlow(flow, l.warm, send)
		if !rec.flows[len(rec.flows)-1].ok {
			return nil, fmt.Errorf("traced replay: flow %d failed in the handler: %s", i, rec.samples[len(rec.samples)-1].fail)
		}
		total := 0.0
		for _, s := range rec.samples[first:] {
			if err := l.do(s.req); err != nil {
				return nil, fmt.Errorf("traced replay: flow %d %s: %w", i, s.req.op, err)
			}
			total += s.ms
			if !l.warm {
				op := "server." + s.req.op
				l.ms[op+"_handle"] = append(l.ms[op+"_handle"], s.ms)
				l.ms[op+"_self"] = append(l.ms[op+"_self"], s.ms-l.childMS)
				if s.req.op == "query" {
					l.byShape["handle_"+s.req.tag] = append(l.byShape["handle_"+s.req.tag], s.ms)
					l.byShape["self_"+s.req.tag] = append(l.byShape["self_"+s.req.tag], s.ms-l.childMS)
				}
				l.n[op+"_resp_bytes"] += float64(len(s.bodyOrSame()))
				l.n[op+"_req_bytes"] += float64(len(s.req.body))
				l.n[op+"_requests"]++
			}
		}
		if !l.warm {
			handleFlowMS = append(handleFlowMS, total)
		}
	}
	if err := tr.write(filepath.Join(h.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	res.Sizes["replayed_flows"] = len(handleFlowMS)
	res.Sizes["spans"] = len(tr.spans)
	l.report(m, handleFlowMS)
	probeMasks(l.db, m)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// bodyOrSame is the sample's response body, wherever it is kept.
func (s *sample) bodyOrSame() []byte {
	if s.same != nil {
		return s.same.body
	}
	return s.body
}

// report turns the replay's spans and counts into per-layer metrics.
func (l *layers) report(m metrics, handleFlowMS []float64) {
	p50 := func(name string) float64 { return percentile(l.ms[name], 50) }
	names := make([]string, 0, len(l.ms))
	for name := range l.ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.setN(name+"_ms", p50(name), len(l.ms[name]))
	}
	// The query endpoint's three numbers are weighted over the shapes
	// the way the end-to-end query_p50_ms is, so that they add up to it.
	for name, prefix := range map[string]string{"server.query_handle_ms": "handle", "server.query_self_ms": "self", "exec.query_ms": "exec"} {
		v, n := l.byShape.shapeWeighted(prefix, 50)
		m.setN(name, v, n)
	}
	// What HTTP adds per endpoint: the end-to-end p50 of the window
	// over HTTP minus the handle p50 of the replay. With two clients it
	// includes what the other client's requests cost this one.
	for _, op := range endpoints {
		e2e, ok := m[op+"_p50_ms"]
		handle, ok2 := m["server."+op+"_handle_ms"]
		if !ok || !ok2 {
			continue
		}
		name := "dbwipes.http_overhead_" + op + "_ms"
		if op == "query" {
			name = "dbwipes.http_overhead_ms"
		}
		m.set(name, e2e.Value-handle.Value)
	}

	// Shares of the flow's handle time, summed over the measured flows.
	handle := sum(handleFlowMS)
	m.setN("server.flow_handle_ms", percentile(handleFlowMS, 50), len(handleFlowMS))
	below := 0.0
	for _, layer := range []string{"sqlparse", "exec", "core", "store"} {
		m.set(layer+".share", share(l.flowMS[layer], handle))
		below += l.flowMS[layer]
	}
	m.set("server.self_share", share(handle-below, handle))
	m.set("engine.share", share(l.flowMS["engine"], handle))
	debugMS := 0.0
	for _, stage := range []string{"preprocess", "featurize", "enumerate", "predicates", "rank"} {
		debugMS += l.n["core.stage_ms."+stage]
	}
	for _, stage := range []string{"preprocess", "featurize", "enumerate", "predicates", "rank"} {
		m.set("core.debug_"+stage+"_share", share(l.n["core.stage_ms."+stage], debugMS))
	}

	runs, advances, debugs := l.n["exec.runs"], l.n["exec.advances"], l.n["core.debugs"]
	m.set("exec.rows_per_ms", share(l.n["exec.rows"], l.n["exec.run_ms"]))
	m.set("exec.vectorized_share", share(l.n["exec.vectorized"], runs))
	m.set("exec.fallback_share", share(l.n["exec.fallback"], runs))
	m.set("exec.where_lowered_share", share(l.n["exec.where_lowered"], runs))
	m.set("exec.masked_agg_share", share(l.n["exec.masked_agg"], runs))
	m.set("exec.filter_short_circuit_share", share(l.n["exec.filter_short_circuit"], runs))
	m.set("exec.residual_rows_per_query", share(l.n["exec.residual_rows"], runs))
	m.set("exec.shards_per_query", share(l.n["exec.shards"], runs))
	m.set("exec.advance_incremental_share", share(l.n["exec.advance_incremental"], advances))
	m.set("exec.sort_carried_share", share(l.n["exec.sort_carried"], advances))
	m.set("core.debug_full_share", share(l.n["core.debug_full"], debugs))
	m.set("core.debug_carried_share", share(l.n["core.debug_carried"], debugs))
	m.set("core.debug_reexpanded_share", share(l.n["core.debug_reexpanded"], debugs))
	m.set("core.debug_candidates", share(l.n["core.candidates"], debugs))
	m.set("core.debug_lineage_rows", share(l.n["core.lineage_rows"], debugs))
	m.set("server.query_resp_bytes", share(l.n["server.query_resp_bytes"], l.n["server.query_requests"]))
	m.set("server.zoom_resp_bytes", share(l.n["server.zoom_resp_bytes"], l.n["server.zoom_requests"]))
	m.set("server.append_req_bytes", share(l.n["server.append_req_bytes"], l.n["server.append_requests"]))

	fs, fs0 := l.fs.counts(), l.fsWarm
	queries := runs + advances
	m.set("store.fs_write_bytes_per_row", share(float64(fs.writtenBytes-fs0.writtenBytes), l.n["store.rows"]))
	m.set("store.fs_writes_per_batch", share(float64(fs.writes-fs0.writes), l.n["store.batches"]))
	m.set("store.fs_syncs_per_batch", share(float64(fs.syncs-fs0.syncs), l.n["store.batches"]))
	m.set("store.fs_read_bytes_per_query", share(float64(fs.readBytes-fs0.readBytes), queries))
	m.set("store.fs_reads_per_query", share(float64(fs.reads-fs0.reads), queries))
}

// probeMasks times predicate.NewIndex(t).ClauseBits on clauses the
// index has never seen (it builds the mask) and on the same clauses
// again (it returns the cached one).
func probeMasks(db *engine.DB, m metrics) {
	t, err := db.Table("readings")
	if err != nil {
		return
	}
	ix := predicate.NewIndex(t)
	var miss, hit []float64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			c := predicate.Clause{Col: "temperature", Op: predicate.OpGt, Val: engine.NewFloat(60 + float64(i)*0.37)}
			t0 := time.Now()
			ix.ClauseBits(c)
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			if pass == 0 {
				miss = append(miss, ms)
			} else {
				hit = append(hit, ms)
			}
		}
	}
	m.setN("predicate.mask_miss_ms", percentile(miss, 50), len(miss))
	m.setN("predicate.mask_hit_ms", percentile(hit, 50), len(hit))
}
