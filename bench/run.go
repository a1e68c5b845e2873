package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
)

// rounds is how many servers a run sets up from nothing and measures,
// one after the other; see harness.run.
const rounds = 3

// harness holds what every run of this process shares.
type harness struct {
	root   string // repository root (holds cmd/dbwipes)
	outDir string // bench/out: binary, data directories, traces, results
}

// liveServer is one set-up: a running dbwipes, its fixture twin, and
// one warmed-up closed-loop client per connection.
type liveServer struct {
	w     *workload
	fx    *fixture
	proc  *serverProc
	bin   string
	dir   string // run directory under outDir, removed by tearDown
	data  string // store directory inside dir ("" when in memory)
	recs  []*recorder
	scs   []script
	sends []transport

	setupS  float64
	startMS float64 // process start until /api/tables answers
}

// setUp generates the fixture (and for a durable workload writes its
// store directory), builds the server, starts it on a free port, waits
// until it is ready and plays the warm-up flows.
func (h *harness) setUp(ctx context.Context, w *workload, seed int64, round int) (*liveServer, error) {
	t0 := time.Now()
	ls := &liveServer{w: w}
	var err error
	if ls.dir, err = os.MkdirTemp(h.outDir, "run-"+w.name+"-"); err != nil {
		return nil, err
	}
	if w.durable {
		ls.data = filepath.Join(ls.dir, "data")
	}
	ls.fx = w.generate()
	if w.durable {
		if err = ls.fx.ingest(ls.data); err != nil {
			ls.tearDown()
			return nil, fmt.Errorf("ingest fixture: %w", err)
		}
	}
	if ls.bin, err = buildServer(ctx, h.root, h.outDir); err != nil {
		ls.tearDown()
		return nil, err
	}
	tStart := time.Now()
	if ls.proc, err = startServer(ctx, ls.bin, w.serverArgs(ls.data)); err != nil {
		ls.tearDown()
		return nil, err
	}
	ls.startMS = float64(time.Since(tStart)) / float64(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		ls.recs = append(ls.recs, newRecorder(c))
		ls.scs = append(ls.scs, w.script(seed, round*w.clients+c, ls.fx))
		ls.sends = append(ls.sends, httpTransport(ls.proc.base))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ls.recs[c].warmUp(ls.scs[c], ls.sends[c], w.warmFlows)
		}(c)
	}
	wg.Wait()
	ls.setupS = time.Since(t0).Seconds()
	return ls, nil
}

// tearDown stops the server, if it still runs, and removes the run
// directory. It reports a server that did not shut down cleanly.
func (ls *liveServer) tearDown() error {
	var err error
	if ls.proc != nil {
		err = ls.proc.stop()
		ls.proc = nil
	}
	if rmErr := os.RemoveAll(ls.dir); err == nil {
		err = rmErr
	}
	return err
}

// serverStats is the part of GET /api/stats the benchmark reads.
type serverStats struct {
	Tables map[string]struct {
		Rows int `json:"rows"`
	} `json:"tables"`
	Endpoints map[string]struct {
		Shed      int64 `json:"shed"`
		Deadline  int64 `json:"deadline_exceeded"`
		Cancelled int64 `json:"cancelled"`
	} `json:"endpoints"`
	Scan struct {
		Queries       int64 `json:"queries"`
		SegsSkipped   int64 `json:"segs_skipped"`
		ChunksFaulted int64 `json:"chunks_faulted"`
	} `json:"scan"`
	Store *struct {
		Tables map[string]struct {
			SealedOnDisk int `json:"sealed_on_disk"`
		} `json:"tables"`
		Pool *struct {
			UsedBytes int64 `json:"used_bytes"`
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"pool"`
	} `json:"store"`
}

func getStats(base string) (*serverStats, error) {
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /api/stats: status %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /api/stats: %w", err)
	}
	return &st, nil
}

// window is what one measured interval over HTTP produced, beyond the
// recorders' samples.
type window struct {
	wallS         float64
	cutShort      bool // the wall-clock cap ended the script early
	serverCPUS    float64
	harnessCPUS   float64
	rssPeakMB     float64
	before, after *serverStats
}

// measure plays flows flows on every client, capped at capSeconds of
// wall clock, and brackets them with the server's own counters and CPU
// time.
func (ls *liveServer) measure(ctx context.Context, flows, capSeconds int) (*window, error) {
	var win window
	var err error
	if win.before, err = getStats(ls.proc.base); err != nil {
		return nil, err
	}
	_, cpu0, err := procUsage(ls.proc.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	began := make([]time.Time, len(ls.recs))
	ended := make([]time.Time, len(ls.recs))
	played := make([]int, len(ls.recs))
	deadline := time.Now().Add(time.Duration(capSeconds) * time.Second)
	var wg sync.WaitGroup
	for c := range ls.recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			began[c], ended[c], played[c] = ls.recs[c].measure(ls.scs[c], ls.sends[c], flows, deadline, ctx.Done())
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first, last := began[0], ended[0]
	for c := range began {
		win.cutShort = win.cutShort || played[c] < flows
		if began[c].Before(first) {
			first = began[c]
		}
		if ended[c].After(last) {
			last = ended[c]
		}
	}
	win.wallS = last.Sub(first).Seconds()
	win.harnessCPUS = selfCPUSeconds() - self0
	rss, cpu1, err := procUsage(ls.proc.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	win.rssPeakMB, win.serverCPUS = rss, cpu1-cpu0
	if win.after, err = getStats(ls.proc.base); err != nil {
		return nil, err
	}
	return &win, nil
}

// verify runs the oracle over everything the clients recorded: orc for
// the fresh-session workloads, whose answers depend only on the request
// (so one oracle serves all rounds of a run), a new sequential replay
// on this server's twin for stream_monitor.
func (ls *liveServer) verify(orc *oracle) *streamOracle {
	if ls.w.kind == "stream" {
		so := newStreamOracle(ls.fx.db)
		so.verify(ls.recs[0])
		return so
	}
	orc.verify(ls.recs)
	return nil
}

// durability closes stream_monitor: SIGTERM the server, start it again
// on the same directory, and require the recovered table to hold
// exactly the acknowledged rows minus the retained-away ones and the
// window query to answer as the oracle's from-scratch run does.
func (ls *liveServer) durability(ctx context.Context, so *streamOracle, m metrics) error {
	if err := ls.proc.stop(); err != nil {
		ls.proc = nil
		return err
	}
	ls.proc = nil
	twin, err := ls.fx.db.Table("readings")
	if err != nil {
		return err
	}
	t0 := time.Now()
	if ls.proc, err = startServer(ctx, ls.bin, ls.w.serverArgs(ls.data)); err != nil {
		return err
	}
	m.set("dbwipes.restart_ms", float64(time.Since(t0))/float64(time.Millisecond))
	st, err := getStats(ls.proc.base)
	if err != nil {
		return err
	}
	want := ls.w.intelRows + so.appended - so.dropped
	if got := st.Tables["readings"].Rows; got != want || got != twin.NumRows() {
		return fmt.Errorf("durability: %d rows after restart, acknowledged %d + %d appended - %d retained = %d", got, ls.w.intelRows, so.appended, so.dropped, want)
	}
	q := &request{op: "query", session: "after-restart", sql: so.last.req.sql}
	q.encode()
	status, body, _, err := httpTransport(ls.proc.base)(q)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("durability: window query after restart: status %d, %v", status, err)
	}
	scratch, err := exec.RunSQL(ls.fx.db, q.sql)
	if err != nil {
		return err
	}
	if err := checkQueryResp(body, scratch, nil); err != nil {
		return fmt.Errorf("durability: window query after restart: %w", err)
	}
	return nil
}

// failure is one request the run counts as failed.
type failure struct {
	Client int    `json:"client"`
	Index  int    `json:"index"` // position in the client's request sequence, warm-up included
	Op     string `json:"op"`
	Why    string `json:"why"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Sizes     map[string]int    `json:"sizes"`
	Failures  []failure         `json:"failures,omitempty"`
	Note      string            `json:"note,omitempty"`
}

// newRunResult starts a run's record with its frozen sizes.
func newRunResult(w *workload, seed int64, seconds, flows int, trace bool) *runResult {
	return &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Correct: true, Metrics: metrics{}, Sizes: map[string]int{
		"intel_rows": w.intelRows, "fec_rows": w.fecRows, "clients": w.clients,
		"warm_flows_per_client": w.warmFlows, "flows_per_client": flows,
	}}
}

// run is one untraced run. It measures rounds servers one after the
// other, each set up from nothing and given a third of the script, and
// reports each metric's median over the rounds: what disturbs one
// server's window on this shared box (a neighbour's burst, an unlucky
// heap layout) does not move the median of three, and setup_s gets its
// repeats for free. The tail percentile is the exception: p90 is taken
// over the samples of all rounds, because a third of a script leaves
// too few beyond it. Requests are counted over all rounds.
func (h *harness) run(ctx context.Context, w *workload, seed int64, seconds int) (*runResult, error) {
	flows := (w.flows(seconds) + rounds - 1) / rounds
	res := newRunResult(w, seed, seconds, flows*rounds, false)
	var orc *oracle
	var perRound []metrics
	pooled := latencies{} // tails need every sample: p90 is taken over the run, not per round
	for round := 0; round < rounds; round++ {
		ls, err := h.setUp(ctx, w, seed, round)
		if err != nil {
			return nil, err
		}
		if orc == nil {
			orc = newOracle(ls.fx.db)
		}
		m, lat, err := ls.round(ctx, flows, 3*seconds, orc, res, round == rounds-1)
		if tdErr := ls.tearDown(); err == nil {
			err = tdErr
		}
		if err != nil {
			return nil, err
		}
		perRound = append(perRound, m)
		pooled.merge(lat)
	}
	for _, d := range defs { // a metric only some rounds have (the restart) is the median of those
		var vals []float64
		n := 0
		for _, m := range perRound {
			if mv, ok := m[d.Name]; ok {
				vals = append(vals, mv.Value)
				n += mv.N
			}
		}
		if len(vals) > 0 {
			_, med, _ := quartiles(vals)
			metrics(res.Metrics).setN(d.Name, med, n)
		}
	}
	pooled.percentiles(res.Metrics, 90)
	metrics(res.Metrics).set("failed_share", share(float64(res.Failed), float64(res.Attempted)))
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// round measures this server: the clients' scripts, the oracle pass,
// and on last (for stream_monitor) the durability check. It returns the
// round's metrics and adds its requests and failures to res.
func (ls *liveServer) round(ctx context.Context, flows, capSeconds int, orc *oracle, res *runResult, last bool) (metrics, latencies, error) {
	win, err := ls.measure(ctx, flows, capSeconds)
	if err != nil {
		return nil, nil, err
	}
	so := ls.verify(orc)
	m := metrics{}
	m.set("setup_s", ls.setupS)
	m.set("dbwipes.start_ms", ls.startMS)
	m.set("datasets.generate_ms", ls.fx.genMS)
	lat := endToEnd(ls.recs, win, m, res)
	statsDelta(win, m)
	if win.cutShort {
		res.Correct = false
		res.Note = fmt.Sprintf("a round's script did not finish within %d s; the rest was not played", capSeconds)
	}
	rows := ls.w.intelRows + ls.w.fecRows
	if so != nil {
		for mode, n := range so.modes {
			res.Sizes["debug_"+mode] += n
		}
		res.Sizes["appended_rows"] += so.appended
		res.Sizes["retained_away_rows"] += so.dropped
		rows += so.appended - so.dropped
		if last {
			if err := ls.durability(ctx, so, m); err != nil {
				res.Note, res.Correct = err.Error(), false
			}
		}
	}
	if ls.w.durable {
		if ls.proc != nil {
			if err := ls.proc.stop(); err != nil { // flush before measuring the directory
				return nil, nil, err
			}
			ls.proc = nil
		}
		bytes, err := dirBytes(ls.data)
		if err != nil {
			return nil, nil, err
		}
		m.set("disk_bytes_per_row", share(float64(bytes), float64(rows)))
	}
	return m, lat, nil
}

// latencies are the verified, measured request and flow times of one
// round or, merged, of a run: by endpoint ("query"), by endpoint and
// shape ("query_grouped"), and by whole flow ("flow").
type latencies map[string][]float64

func (l latencies) merge(o latencies) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}

// percentiles sets <name>_p<p>_ms for every key. A mix of query shapes
// has no meaningful overall percentile: half the shapes take 4 ms and
// half 25-90 ms, so the median sits in the gap between them and jumps
// with the slightest change. What is reported as query_p<p>_ms is the
// mean of the shapes' own percentiles weighted by how often each is
// asked, which for a workload with one shape is that shape's.
func (l latencies) percentiles(m metrics, p float64) {
	suffix := fmt.Sprintf("_p%g_ms", p)
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "query" {
			m.setN(k+suffix, percentile(l[k], p), len(l[k]))
		}
	}
	if v, n := l.shapeWeighted("query", p); n > 0 {
		m.setN("query"+suffix, v, n)
	}
}

// shapeWeighted is the mean of the p-th percentiles of the entries
// "<prefix>_<shape>", weighted by their sample counts.
func (l latencies) shapeWeighted(prefix string, p float64) (v float64, n int) {
	for k, vals := range l {
		if strings.HasPrefix(k, prefix+"_") {
			v += percentile(vals, p) * float64(len(vals))
			n += len(vals)
		}
	}
	return share(v, float64(n)), n
}

// endToEnd turns one round's verified samples into its user-facing
// metrics, adds its requests and failures to res, and returns the
// latencies for the run-wide tail percentiles.
func endToEnd(recs []*recorder, win *window, m metrics, res *runResult) latencies {
	lat := latencies{}
	verified, appendedRows := 0, 0
	for _, rec := range recs {
		for i, s := range rec.samples {
			res.Attempted++
			if s.fail != "" {
				res.Failed++
				if len(res.Failures) < 50 {
					res.Failures = append(res.Failures, failure{rec.client, i, s.req.op, s.fail})
				}
				continue
			}
			if s.warm {
				continue
			}
			verified++
			lat[s.req.op] = append(lat[s.req.op], s.ms)
			if s.req.tag != "" {
				k := s.req.op + "_" + s.req.tag
				lat[k] = append(lat[k], s.ms)
			}
			if s.req.op == "append" {
				appendedRows += len(s.req.rows)
			}
		}
		for _, f := range rec.flows {
			if f.ok && !f.warm && !f.retention {
				lat["flow"] = append(lat["flow"], f.ms)
			}
		}
		res.Sizes["flows"] += len(rec.flows)
	}
	res.Sizes["requests"] = res.Attempted

	m.setN("requests_per_s", share(float64(verified), win.wallS), verified)
	lat.percentiles(m, 50)
	if appendedRows > 0 {
		m.set("append_rows_per_s", share(float64(appendedRows), win.wallS))
	}
	m.set("cpu_ms_per_request", share(win.serverCPUS*1000, float64(verified)))
	m.set("rss_peak_mb", win.rssPeakMB)
	m.set("harness.cpu_s", win.harnessCPUS)
	m.set("harness.wall_s", win.wallS)
	return lat
}

// statsDelta reports what the server itself counted over the window.
func statsDelta(win *window, m metrics) {
	a, b := win.before, win.after
	var shed, deadline, cancelled int64
	for name, e := range b.Endpoints {
		shed += e.Shed - a.Endpoints[name].Shed
		deadline += e.Deadline - a.Endpoints[name].Deadline
		cancelled += e.Cancelled - a.Endpoints[name].Cancelled
	}
	m.set("server.shed", float64(shed))
	m.set("server.deadline_exceeded", float64(deadline))
	m.set("server.cancelled", float64(cancelled))
	q := float64(b.Scan.Queries - a.Scan.Queries)
	m.set("exec.segs_skipped_per_query", share(float64(b.Scan.SegsSkipped-a.Scan.SegsSkipped), q))
	m.set("exec.chunks_faulted_per_query", share(float64(b.Scan.ChunksFaulted-a.Scan.ChunksFaulted), q))
	var hits, misses, evictions, used float64
	sealed := 0
	if b.Store != nil {
		for _, t := range b.Store.Tables {
			sealed += t.SealedOnDisk
		}
		if p, p0 := b.Store.Pool, a.Store.Pool; p != nil && p0 != nil {
			hits, misses = float64(p.Hits-p0.Hits), float64(p.Misses-p0.Misses)
			evictions, used = float64(p.Evictions-p0.Evictions), float64(p.UsedBytes)
		}
	}
	m.set("store.pool_hit_rate", share(hits, hits+misses))
	m.set("store.pool_misses", misses)
	m.set("store.pool_evictions", evictions)
	m.set("store.pool_used_bytes", used)
	m.set("store.sealed_on_disk", float64(sealed))
}
