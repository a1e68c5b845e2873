package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/datasets"
)

// A script is a seeded, deterministic stream of flows for one client. A
// flow is the unit a user waits for as a whole: one dashboard session,
// one pass over the analyst's query shapes, or one monitoring cycle.
// Scripts never look at the data: every literal is drawn from the seed,
// so the same seed gives byte-identical requests on any commit. The
// only request fields filled in at run time are the suspect row indexes
// of suggest/zoom/debug, which a dashboard user picks from the query
// response they are looking at (request.bind).
type script interface {
	next() []*request
}

// request is one HTTP call. The typed fields are what the in-process
// layer replay and the oracle read; body is their JSON encoding, made
// before the request's clock starts.
type request struct {
	op  string // endpoint under /api/: query, suggest, zoom, debug, clean, append, retention
	tag string // scan shape of a query request ("" elsewhere)
	// key identifies the answer: two requests with the same non-empty
	// key must get byte-identical responses, so the oracle decodes and
	// checks one body per distinct (key, body hash). "" means unique.
	key     string
	session string

	sql string // query

	// suggest, zoom, debug: suspects are the rows of the flow's latest
	// query response whose third column (std_temp) exceeds suspectGT,
	// at most suspectMax of them in output order (0 = no cap).
	suspectGT  float64
	suspectMax int
	suspect    []int // bound at run time

	limit        int     // zoom
	metricC      float64 // debug: toohigh(c)
	examplesCond string  // debug

	rows    [][]any // append: JSON-typed cells in schema order
	maxRows int     // retention

	body    []byte
	traceID int // traced replay: the id the request's spans share
}

// stdTempCol is the std_temp column of the window query's output, the
// column suspects are picked by.
const stdTempCol = 2

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only bench-built values reach here
	}
	return b
}

func (r *request) encode() {
	switch r.op {
	case "query":
		r.body = mustJSON(map[string]any{"session": r.session, "sql": r.sql})
	case "suggest":
		r.body = mustJSON(map[string]any{"session": r.session, "suspect": r.suspect, "aggItem": 1})
	case "zoom":
		r.body = mustJSON(map[string]any{"session": r.session, "suspect": r.suspect, "limit": r.limit})
	case "debug":
		r.body = mustJSON(map[string]any{
			"session": r.session, "suspect": r.suspect, "aggItem": -1,
			"metric": "toohigh", "metricParams": map[string]float64{"c": r.metricC},
			"examplesCond": r.examplesCond,
		})
	case "clean":
		r.body = mustJSON(map[string]any{"session": r.session, "explanation": 0})
	case "append":
		r.body = mustJSON(map[string]any{"table": "readings", "rows": r.rows})
	case "retention":
		r.body = mustJSON(map[string]any{"table": "readings", "max_rows": r.maxRows})
	default:
		panic("bench: unknown op " + r.op)
	}
}

// needsSuspects reports whether the request's body depends on the
// flow's latest query response.
func (r *request) needsSuspects() bool {
	return r.op == "suggest" || r.op == "zoom" || r.op == "debug"
}

// bind picks the suspects from a query response body and encodes the
// request. It runs between two requests, off both their clocks.
func (r *request) bind(queryResp []byte) error {
	var p struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(queryResp, &p); err != nil {
		return fmt.Errorf("bind %s: %w", r.op, err)
	}
	r.suspect = pickSuspects(len(p.Rows), func(i int) (float64, bool) {
		if len(p.Rows[i]) <= stdTempCol {
			return 0, false
		}
		f, ok := p.Rows[i][stdTempCol].(float64)
		return f, ok
	}, r.suspectGT, r.suspectMax)
	if len(r.suspect) == 0 {
		return fmt.Errorf("bind %s: no row has std_temp > %g", r.op, r.suspectGT)
	}
	r.encode()
	return nil
}

// pickSuspects is the selection rule shared by the client (over JSON)
// and the oracle (over the twin's result).
func pickSuspects(n int, val func(i int) (float64, bool), gt float64, max int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if v, ok := val(i); ok && v > gt {
			out = append(out, i)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// clientRNG derives one client's generator from the run seed.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
}

func round(f float64, places int) float64 {
	p := math.Pow(10, float64(places))
	return math.Round(f*p) / p
}

// ---- intel_session -------------------------------------------------

// sessionScript is the paper's demo flow on a fresh session per flow:
// query (Figure 4) → suggest → zoom → debug → clean. The suspect
// threshold, the metric's c and the example condition come from small
// seeded pools, so a run asks a handful of distinct questions many
// times over (what a class of students following the walkthrough does)
// and the oracle computes each distinct answer once. The pools are
// drawn from narrow bands around the walkthrough's own literals
// (std_temp > 10, c = 70, temperature > 100): every seed writes
// different requests, but selects about the same windows and rows, so
// runs on different seeds do comparable work.
// sessionSuspects caps the suspect windows at the first ten over the
// threshold: where the failing motes start to die differs from seed to
// seed, and with it how many windows run hot, but ten windows are
// always about 31 000 lineage rows for Debug to explain.
const sessionSuspects = 10

type sessionScript struct {
	rng    *rand.Rand
	prefix string
	n      int
	gts    []float64
	cs     []float64
	conds  []float64
}

func newSessionScript(seed int64, client int) *sessionScript {
	pool := rand.New(rand.NewSource(seed*31 + 5)) // shared by the clients
	s := &sessionScript{
		rng:    clientRNG(seed, client),
		prefix: fmt.Sprintf("r%d-c%d-", seed, client),
	}
	for i := 0; i < 2; i++ {
		s.gts = append(s.gts, round(9.75+pool.Float64()*0.5, 3))
		s.conds = append(s.conds, round(99.5+pool.Float64(), 2))
	}
	for i := 0; i < 3; i++ {
		s.cs = append(s.cs, round(69.5+pool.Float64(), 2))
	}
	return s
}

func (s *sessionScript) next() []*request {
	sid := fmt.Sprintf("%s%d", s.prefix, s.n)
	s.n++
	gt := s.gts[s.rng.Intn(len(s.gts))]
	c := s.cs[s.rng.Intn(len(s.cs))]
	cond := fmt.Sprintf("temperature > %g", s.conds[s.rng.Intn(len(s.conds))])
	sql := datasets.IntelWindowSQL
	dkey := fmt.Sprintf("%s|gt=%g|c=%g|%s", sql, gt, c, cond)
	q := &request{op: "query", tag: "grouped", key: "query|" + sql, session: sid, sql: sql}
	q.encode()
	cl := &request{op: "clean", key: "clean|" + dkey, session: sid, sql: sql, suspectGT: gt, suspectMax: sessionSuspects, metricC: c, examplesCond: cond}
	cl.encode()
	return []*request{
		q,
		{op: "suggest", key: fmt.Sprintf("suggest|%s|gt=%g", sql, gt), session: sid, sql: sql, suspectGT: gt, suspectMax: sessionSuspects},
		{op: "zoom", key: fmt.Sprintf("zoom|%s|gt=%g", sql, gt), session: sid, sql: sql, suspectGT: gt, suspectMax: sessionSuspects, limit: 2000},
		{op: "debug", key: "debug|" + dkey, session: sid, sql: sql, suspectGT: gt, suspectMax: sessionSuspects, metricC: c, examplesCond: cond},
		cl,
	}
}

// ---- scan_mix / scan_outofcore ------------------------------------

// scanShapes is one flow's multiset of query shapes; a flow issues them
// in a seeded order. distinct (the boxed fallback) is 1 in 20.
var scanShapes = []string{
	"grouped", "grouped", "grouped", "grouped",
	"selective", "selective", "selective", "selective",
	"global", "global", "global",
	"orchain", "orchain",
	"zonemap", "zonemap",
	"fecdaily", "fecdaily",
	"residual", "residual",
	"distinct",
}

var (
	fecCandidates = []string{"Obama", "McCain", "Clinton", "Romney"}
	memoPatterns  = []string{"%SPOUSE%", "%REFUND%", "%REATTRIBUTION%"}
	buckets       = []int{600, 900, 1200, 1800, 2400, 3600}
)

// scanScript is the ad hoc analyst. Each of a flow's twenty queries
// has a session of its own, which the same slot of the next flow uses
// again: a session never sees one statement twice in a row (that would
// be answered from the carried result in about a millisecond, which
// would hide the executor), and the server holds twenty results per
// client, not one per query ever asked, so its memory is a working set
// and not a function of how long the run was.
// About half the queries with a numeric literal reuse one of a few hot
// literals, whose clause mask the server already holds, and half bring
// a literal never seen before, whose mask it must build.
type scanScript struct {
	rng      *rand.Rand
	prefix   string
	maxEpoch int
	hotTemp  []float64
	hotHum   []float64
	hotEpoch []int
	lastSQL  []string // per slot, the statement its session ran last
}

func newScanScript(seed int64, client, intelRows int) *scanScript {
	pool := rand.New(rand.NewSource(seed*37 + 11)) // shared by the clients
	s := &scanScript{
		rng:      clientRNG(seed, client),
		prefix:   fmt.Sprintf("r%d-c%d-", seed, client),
		maxEpoch: intelRows / 54,
		lastSQL:  make([]string, len(scanShapes)),
	}
	for i := 0; i < 4; i++ {
		s.hotTemp = append(s.hotTemp, round(60+pool.Float64()*12, 2))
		s.hotHum = append(s.hotHum, round(34+pool.Float64()*10, 2))
		s.hotEpoch = append(s.hotEpoch, pool.Intn(s.maxEpoch-200))
	}
	return s
}

// lit returns a hot literal or a fresh one with equal odds.
func (s *scanScript) lit(hot []float64, lo, width float64) float64 {
	if s.rng.Intn(2) == 0 {
		return hot[s.rng.Intn(len(hot))]
	}
	return round(lo+s.rng.Float64()*width, 4)
}

func (s *scanScript) sql(shape string) string {
	mote := 1 + s.rng.Intn(54)
	switch shape {
	case "grouped":
		b := buckets[s.rng.Intn(len(buckets))]
		return fmt.Sprintf("SELECT bucket(epoch(ts), %d) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), %d) ORDER BY w", b, b)
	case "selective":
		return fmt.Sprintf("SELECT bucket(epoch(ts), 3600) AS w, avg(temperature) AS avg_temp, count(*) AS n FROM readings WHERE moteid = %d AND temperature > %g GROUP BY bucket(epoch(ts), 3600) ORDER BY w",
			mote, s.lit(s.hotTemp, 60, 12))
	case "global":
		return fmt.Sprintf("SELECT count(*) AS n, sum(temperature) AS total, min(temperature) AS lo, max(temperature) AS hi FROM readings WHERE humidity > %g",
			s.lit(s.hotHum, 34, 10))
	case "orchain":
		return fmt.Sprintf("SELECT moteid, count(*) AS n, avg(voltage) AS volts FROM readings WHERE moteid = %d OR temperature > %g OR humidity < %g GROUP BY moteid ORDER BY moteid",
			mote, round(s.lit(s.hotTemp, 60, 12)+35, 4), round(s.rng.Float64()*2-4, 1))
	case "zonemap":
		lo := s.hotEpoch[s.rng.Intn(len(s.hotEpoch))]
		if s.rng.Intn(2) == 0 {
			lo = s.rng.Intn(s.maxEpoch - 200)
		}
		return fmt.Sprintf("SELECT moteid, avg(temperature) AS avg_temp FROM readings WHERE epoch BETWEEN %d AND %d GROUP BY moteid ORDER BY moteid", lo, lo+100)
	case "fecdaily":
		return datasets.FECDailySQL(fecCandidates[s.rng.Intn(len(fecCandidates))])
	case "residual":
		return fmt.Sprintf("SELECT day, sum(amount) AS total FROM donations WHERE candidate = '%s' AND memo LIKE '%s' GROUP BY day ORDER BY day",
			fecCandidates[s.rng.Intn(len(fecCandidates))], memoPatterns[s.rng.Intn(len(memoPatterns))])
	case "distinct":
		return fmt.Sprintf("SELECT count(DISTINCT epoch) AS n FROM readings WHERE moteid = %d", mote)
	}
	panic("bench: unknown scan shape " + shape)
}

func (s *scanScript) next() []*request {
	order := s.rng.Perm(len(scanShapes))
	flow := make([]*request, len(order))
	for slot, j := range order {
		shape := scanShapes[j]
		sql := s.sql(shape)
		for sql == s.lastSQL[slot] {
			sql = s.sql(shape)
		}
		s.lastSQL[slot] = sql
		r := &request{op: "query", tag: shape, key: "query|" + sql, sql: sql,
			session: fmt.Sprintf("%sslot%d", s.prefix, slot)}
		r.encode()
		flow[slot] = r
	}
	return flow
}

// ---- stream_monitor ------------------------------------------------

const (
	streamBatchRows   = 1000
	streamCycles      = 3  // append+query cycles per flow; the flow ends with one debug
	streamRetainEvery = 20 // every n-th flow also applies retention
	streamSuspects    = 8
	streamSession     = "monitor"
)

// streamScript is the monitoring loop on one session: append a batch,
// re-run the window query (carried by exec.Advance), and every third
// cycle re-debug the same suspects (carried by core.DebugAdvance);
// every streamRetainEvery-th flow caps the table at its base size, so
// the oldest segment is dropped about as often as a new one seals.
// Batches continue the Intel trace where the base table stops: same
// motes and epoch cadence, with the base's failing motes still
// reporting the battery-death temperatures the suspects select.
type streamScript struct {
	rng      *rand.Rand
	n        int
	row      int // global row number of the next appended reading
	baseRows int
	failing  map[int]bool
}

func newStreamScript(seed int64, baseRows int, failing []int) *streamScript {
	s := &streamScript{rng: clientRNG(seed, 0), row: baseRows, baseRows: baseRows, failing: map[int]bool{}}
	for _, m := range failing {
		s.failing[m] = true
	}
	return s
}

var intelStart = time.Date(2004, 2, 28, 0, 0, 0, 0, time.UTC)

func (s *streamScript) batch() [][]any {
	rows := make([][]any, streamBatchRows)
	for i := range rows {
		epoch, mote := s.row/54, 1+s.row%54
		s.row++
		temp := 68 + s.rng.NormFloat64()*0.8
		hum := 40 + s.rng.NormFloat64()*1.5
		volt := 2.58 + s.rng.NormFloat64()*0.005
		if s.failing[mote] {
			temp = 118 + s.rng.NormFloat64()*6
			hum = -4 + s.rng.NormFloat64()*2
			volt = 2.2 + s.rng.NormFloat64()*0.01
		}
		rows[i] = []any{
			intelStart.Unix() + int64(epoch)*31, epoch, mote,
			round(temp, 2), round(hum, 2), round(450*(0.8+s.rng.Float64()*0.4), 2), round(volt, 4),
		}
	}
	return rows
}

func (s *streamScript) next() []*request {
	var flow []*request
	for c := 0; c < streamCycles; c++ {
		a := &request{op: "append", rows: s.batch()}
		a.encode()
		q := &request{op: "query", tag: "carried", session: streamSession, sql: datasets.IntelWindowSQL}
		q.encode()
		flow = append(flow, a, q)
	}
	flow = append(flow, &request{op: "debug", session: streamSession, sql: datasets.IntelWindowSQL,
		suspectGT: 10, suspectMax: streamSuspects, metricC: 70, examplesCond: "temperature > 100"})
	s.n++
	if s.n%streamRetainEvery == 0 {
		r := &request{op: "retention", maxRows: s.baseRows}
		r.encode()
		flow = append(flow, r)
	}
	return flow
}
