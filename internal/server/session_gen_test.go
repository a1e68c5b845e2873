package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/testgen"
)

// This file is the server's session generator. A case is a seeded
// dashboard session — queries, zooms, suggestions, debugs, cleans,
// resets, appends, retention, restarts — served by a system under test
// (SUT) behind a pool of 0, 256 B or 16 KiB, or engine-only, and by an
// uncapped twin of its kind that gets only the steps the SUT completed.
// A step may run cancelled at a drawn poll or with one read failing. A
// completed step answers the twin's bytes, a cancelled one 499, a faulted
// one a retryable 503, and anchor holds each answer to a model that runs
// exec and core over its own rows. A failing case is shrunk and printed
// as a literal for a profile's cases; the tests at the bottom are profiles.

type gdims uint

const (
	gAppend  gdims = 1 << iota // appends: growing, founding groups, malformed
	gRetain                    // retention passes
	gCancel                    // steps cancelled at a drawn poll
	gFault                     // steps with one read failing (store-backed)
	gRestart                   // both stores reopened behind new servers
	gAll     = gAppend | gRetain | gCancel | gFault | gRestart
)

// sessProfile is one use of the generator: checked-in cases, whose last
// debug must carry when carry is set, then seeds drawn cases over dims
// (force's in every one), store-backed with store; want names the states
// the cases must reach.
type sessProfile struct {
	cases        []sessCase
	seeds        int
	dims, force  gdims
	store, carry bool
	want         string
}

// sessStep is one request, cancelled at poll cancel-1 or with the
// fault'th read failing when set. An append's body is its batch's
// {"rows","seed","fresh","bad"}, a restart's the SUT's new pool.
type sessStep struct {
	path, body    string
	cancel, fault int
}

// sessCase is a table of rows drawn from seed, on a store behind pool or
// engine-only, and the steps played on it.
type sessCase struct {
	seed  int64
	rows  int
	store bool
	pool  int64
	steps []sessStep
}

// sessModel is ground truth: the table's rows from base, and the client's
// session (unless queried is false): its query, its effective statement
// (the query with the cleanings taken, whose conjuncts negs holds), the
// reference result of the last payload over base seenBase, the last
// debug's cleanedSql and mode, and the question the server's carried
// analysis answers ("" none) with whether a retention moved the base since.
type sessModel struct {
	rows             [][]engine.Value
	base, seenBase   int
	queried          bool
	sql, asked, mode string
	stmt             *sqlparse.SelectStmt
	negs             []expr.Expr
	seen             *exec.Result
	cleaned          []string
	retained         bool
}

// sessBody is session s's request body of kv's keys and values.
func sessBody(kv ...any) string {
	b := map[string]any{"session": "s"}
	for k := 0; k < len(kv); k += 2 {
		b[kv[k].(string)] = kv[k+1]
	}
	return string(must(json.Marshal(b)))
}

// draw draws case c's next step over dims d, from the model's state.
func (p sessProfile) draw(rng *rand.Rand, c *sessCase, d gdims, m *sessModel) sessStep {
	var st sessStep
	if d&gCancel != 0 && rng.Intn(4-2*int(p.force&gCancel/gCancel)) == 0 {
		st.cancel = 1 + rng.Intn([]int{3, 30}[rng.Intn(2)]) // most requests poll a few times
	} else if d&gFault != 0 && c.store && rng.Intn(4) == 0 {
		st.fault = 1 + rng.Intn(40)
	}
	var suspect []int
	if m.queried {
		n := max(m.seen.NumRows(), 1)
		suspect = rng.Perm(n)[:min(n, 1+rng.Intn(3))]
		if rng.Intn(4) == 0 {
			suspect = append(suspect, m.seen.NumRows()+rng.Intn(2))
		}
		slices.Sort(suspect)
	}
	switch k := rng.Intn(20); {
	case !m.queried || k < 3:
		stmt := testgen.DebugStmt(rng)
		if rng.Intn(3) == 0 {
			stmt.OrderBy = []sqlparse.OrderItem{{Expr: expr.NewCol(stmt.Items[len(stmt.GroupBy)].Alias), Desc: true}}
		}
		sql := stmt.String()
		if m.queried && rng.Intn(2) == 0 {
			sql = m.sql
		} else if rng.Intn(12) == 0 {
			sql = "SELECT s, sum(nope) AS a FROM p GROUP BY s"
		}
		st.path, st.body = "/api/query", sessBody("sql", sql)
	case k < 5:
		st.path, st.body = "/api/zoom", sessBody("suspect", suspect)
	case k == 5:
		st.path, st.body = "/api/suggest", sessBody("suspect", suspect, "aggItem", rng.Intn(2))
	case k < 11:
		var ex any = []string{"f > 0", "s = 'a'", "i < 0", "lower(s) LIKE '%x%'", "j = 1"}[rng.Intn(5)]
		key := "examplesCond"
		if rng.Intn(3) == 0 { // rows a zoom of the suspects answered
			key, ex = "exampleRows", slices.DeleteFunc(m.seen.Lineage(suspect), func(int) bool { return rng.Intn(3) > 0 })
		}
		metric, params := []string{"toohigh", "toolow", "notequal", "diff"}[rng.Intn(4)], map[string]any{"c": rng.Intn(9) - 4}
		if rng.Intn(5) == 0 {
			metric, params = "zscore", map[string]any{"mean": rng.Intn(9) - 4, "std": 1 + rng.Intn(2), "k": rng.Intn(3)}
		}
		st.path, st.body = "/api/debug", sessBody("suspect", suspect, "aggItem", -1, "metric", metric, "metricParams", params, key, ex)
		for _, prev := range slices.Backward(c.steps) {
			if prev.path == "/api/debug" && rng.Intn(2) == 0 {
				st.body = prev.body // the same question again
				break
			}
		}
	case k < 12 || k == 12 && m.cleaned != nil:
		st.path, st.body = "/api/clean", sessBody("explanation", rng.Intn(len(m.cleaned)+1))
	case k < 14 || k < 16 && m.negs != nil: // a reset after a clean re-runs
		st.path, st.body = "/api/reset", sessBody()
	case k < 17 && d&gAppend != 0:
		fresh := []int{0, 0, 1 + rng.Intn(1000)}[rng.Intn(3)]
		st.path, st.body = "/api/append", fmt.Sprintf(`{"rows":%d,"seed":%d,"fresh":%d,"bad":%v}`, 1+rng.Intn(100), rng.Int63(), fresh, rng.Intn(6) == 0)
	case k < 19 && d&gRetain != 0:
		st.path, st.body = "/api/retention", fmt.Sprintf(`{"table":"p","max_rows":%d}`, max(1, len(m.rows)-64*rng.Intn(3)+rng.Intn(64)))
	case k == 19 && d&gRestart != 0:
		return sessStep{path: "restart", body: fmt.Sprint([]int{0, 256, 16 << 10}[rng.Intn(3)])}
	default:
		st.path, st.body = "/api/query", sessBody("sql", m.sql)
	}
	return st
}

// run plays c, drawing its steps first when it has none, and records
// the states its steps reached.
func (c *sessCase) run(p sessProfile, seen map[string]bool) (err error) {
	rng := rand.New(rand.NewSource(c.seed))
	m := &sessModel{}
	for range c.rows {
		m.rows = append(m.rows, testgen.EngRow(testgen.JSONRow(rng)))
	}
	sut, twin := newSUTs(c.store, m.rows)
	if err := cmp.Or(sut.open(c.pool), twin.open(0)); err != nil {
		return err
	}
	defer func() { err = cmp.Or(err, sut.close(), twin.close()) }()
	d := p.force
	for b := gdims(1); b < gAll; b <<= 1 {
		if p.dims&b != 0 && rng.Intn(2) == 0 {
			d |= b
		}
	}
	draw, n := c.steps == nil, 6+rng.Intn(10)
	for k := 0; draw && k < n || !draw && k < len(c.steps); k++ {
		if draw {
			c.steps = append(c.steps, p.draw(rng, c, d, m))
		}
		if err := cmp.Or(c.steps[k].play(sut, twin, m, seen), sut.invariants(m), twin.invariants(m)); err != nil {
			return fmt.Errorf("step %d %+v: %w", k, c.steps[k], err)
		}
	}
	if p.carry && m.mode != "carried" {
		return fmt.Errorf("the last debug answered in mode %q, not carried", m.mode)
	}
	return nil
}

// play plays st on the SUT and, when it completed there, on the twin,
// and holds the answer to the model.
func (st sessStep) play(sut, twin *sessSUT, m *sessModel, seen map[string]bool) error {
	if st.path == "restart" {
		*m, seen["restart"] = sessModel{rows: m.rows, base: m.base}, true
		return cmp.Or(sut.close(), twin.close(), sut.open(must(strconv.ParseInt(st.body, 10, 64))), twin.open(0))
	}
	body, rows, status := st.body, [][]engine.Value(nil), http.StatusOK
	if st.path == "/api/append" {
		body, rows, status = appendBody(st.body)
	}
	ctx := context.Background()
	if st.cancel > 0 {
		ctx = chaos.CancelAfter(st.cancel - 1)
	}
	if st.fault > 0 {
		sut.mem.FailReadAt(st.fault)
		defer sut.mem.FailReadAt(0)
	}
	code, hdr, got := sut.do(ctx, st.path, body)
	switch {
	case code == statusClientClosedRequest && st.cancel > 0:
		seen["cancelled"+st.path] = true
		return nil
	case code == http.StatusServiceUnavailable && st.fault > 0:
		seen["faulted"+st.path] = true
		return loadFailed(got, hdr)
	}
	if wcode, _, want := twin.do(context.Background(), st.path, body); code != wcode || !bytes.Equal(got, want) {
		return fmt.Errorf("answered %d %s\nthe twin %d %s", code, got, wcode, want)
	}
	return m.anchor(st.path, body, rows, status, code, got, seen)
}

// anchor holds a completed step's answer to the model and moves the
// model; status is an append's. Rows render as the server renders them.
func (m *sessModel) anchor(path, body string, rows [][]engine.Value, status, code int, got []byte, seen map[string]bool) error {
	var req struct {
		SQL, Metric, ExamplesCond string
		Suspect, ExampleRows      []int
		Explanation, AggItem      int
		Params                    map[string]float64 `json:"metricParams"`
	}
	var out struct {
		Error             string
		Rows, Eps         json.RawMessage
		Base, LineageSize int
		Mode              string
		Incremental       bool
		Explanations      []struct{ Predicate, CleanedSQL string }
	}
	_, _ = json.Unmarshal([]byte(body), &req), json.Unmarshal(got, &out)
	var want any // what the answer's rows must render as
	check := func() error { return nil }
	// show makes stmt's reference result over the current rows the payload.
	show := func(stmt *sqlparse.SelectStmt, res *exec.Result) {
		m.stmt, m.seen, m.seenBase = stmt, res, m.base
		want = (&Server{}).buildPayload(&session{res: res}).Rows
	}
	switch {
	case path == "/api/append" && status != http.StatusOK:
		seen["malformed"] = true
	case path == "/api/append":
		m.rows, want = append(m.rows[:len(m.rows):len(m.rows)], rows...), len(m.rows)+len(rows)
		seen[map[bool]string{true: "founding", false: "growing"}[strings.Contains(body, "fresh")]] = true
		if !bytes.Contains(got, fmt.Appendf(nil, `"appended":%d,`, len(rows))) {
			return fmt.Errorf("an append of %d rows answered %s", len(rows), got)
		}
	case path == "/api/retention":
		if out.Base%64 != 0 || out.Base < m.base || out.Base-m.base > len(m.rows) {
			return fmt.Errorf("retention to base %d from %d over %d rows: %s", out.Base, m.base, len(m.rows), got)
		}
		if m.queried && out.Base > m.base {
			m.retained, seen["retention"] = true, true
		}
		m.rows, m.base = m.rows[out.Base-m.base:], out.Base
	case path == "/api/query":
		stmt, err := sqlparse.Parse(req.SQL)
		var res *exec.Result
		if err == nil {
			stmt.Where = expr.And(append([]expr.Expr{stmt.Where}, m.negs...)...)
			res, err = exec.RunReference(context.Background(), pTable(m.rows), stmt)
		}
		if err != nil {
			status = http.StatusBadRequest
			break
		}
		if m.sql != req.SQL {
			m.sql, m.cleaned, m.asked = req.SQL, nil, ""
		} else {
			seen["requery"] = true
		}
		m.queried = true
		show(stmt, res)
	case !m.queried && path != "/api/reset":
		status = http.StatusBadRequest // no query executed yet
	case !m.queried:
	case path == "/api/zoom":
		seen["zoom-retained"] = seen["zoom-retained"] || m.seenBase != m.base
		want = must(zoomRows(m.seen.Source, m.seen.Lineage(req.Suspect)))
	case path == "/api/clean" && req.Explanation >= len(m.cleaned):
		status = http.StatusBadRequest
	case path == "/api/clean", path == "/api/reset":
		stmt, negs := must(sqlparse.Parse(m.sql)), []expr.Expr(nil)
		if path == "/api/clean" {
			stmt = must(sqlparse.Parse(m.cleaned[req.Explanation]))
			timeLits(stmt.Where)
			neg := stmt.Where
			if b, ok := neg.(*expr.Bin); ok && m.stmt.Where != nil {
				neg = b.R
			}
			negs = append(m.negs[:len(m.negs):len(m.negs)], neg)
		}
		seen[path] = true
		m.negs, m.cleaned, m.asked = negs, nil, ""
		show(stmt, must(exec.RunReference(context.Background(), pTable(m.rows), stmt)))
	case path == "/api/debug":
		if len(req.Suspect) > 0 && slices.Max(req.Suspect) >= len(m.seen.Groups) {
			seen["out-of-range"], status = true, http.StatusBadRequest
			break
		}
		// The payload's groups, mapped by their first row's stream id onto
		// the current result (exec.Run's: Debug reads argument views, which
		// RunReference lacks), and zoom's row ids from the payload's frame.
		cur, byFirst := must(exec.Run(context.Background(), pTable(m.rows), m.stmt)), map[int]int{}
		for k := range slices.Backward(cur.Groups) {
			byFirst[cur.Groups[k].FirstRow+m.base] = k
		}
		var firsts, mapped, examples []int
		for _, ri := range req.Suspect {
			first := m.seen.Groups[ri].FirstRow + m.seenBase
			k, ok := byFirst[first]
			if !ok {
				seen["gone"], status = true, http.StatusConflict
				break
			}
			seen["remapped"] = seen["remapped"] || k != ri
			firsts, mapped = append(firsts, first), append(mapped, k)
		}
		for _, r := range req.ExampleRows {
			if examples = append(examples, r+m.seenBase-m.base); r+m.seenBase < m.base && status == http.StatusOK {
				seen["example-gone"], status = true, http.StatusConflict
			}
		}
		if status != http.StatusOK {
			break
		}
		seen["example-rebased"] = seen["example-rebased"] || len(examples) > 0 && m.seenBase != m.base
		if len(examples) == 0 && req.ExamplesCond != "" {
			examples = must(core.ExamplesWhereCtx(context.Background(), cur, mapped, req.ExamplesCond))
		}
		metric := must(errmetric.New(req.Metric, req.Params))
		dr, err := core.Debug(core.DebugRequest{Result: cur, AggItem: cmp.Or(req.AggItem, -1), Suspect: mapped, Examples: examples, Metric: metric})
		if err != nil {
			if status = http.StatusBadRequest; code == status && out.Error != err.Error() {
				return fmt.Errorf("debug answered %q, the reference %q", out.Error, err)
			}
			break
		}
		question := fmt.Sprint(req.Metric, req.Params, req.AggItem, slices.Sorted(slices.Values(firsts)))
		fallback := m.asked == "" || m.retained || m.asked != question
		check = func() error {
			// A carried ranking is rescored, not relearned: only a full
			// pass must pick the reference's predicates.
			samePreds := slices.EqualFunc(out.Explanations, dr.Explanations, func(g struct{ Predicate, CleanedSQL string }, w core.Explanation) bool {
				return g.Predicate == w.Pred.String()
			})
			if out.LineageSize != len(dr.F) || !bytes.Equal(out.Eps, must(json.Marshal(finiteJSON(dr.Eps)))) ||
				out.Mode == "full" && !samePreds || fallback && out.Mode != "full" || out.Incremental != (out.Mode == "carried") {
				return fmt.Errorf("debug %s\nthe reference: lineage %d, ε %v, %v (a fallback applies: %v)", got, len(dr.F), dr.Eps, dr.Explanations, fallback)
			}
			m.mode, seen[out.Mode] = out.Mode, true
			m.cleaned, m.asked, m.retained = nil, question, false
			for _, e := range out.Explanations {
				m.cleaned = append(m.cleaned, e.CleanedSQL)
			}
			return nil
		}
	default:
		status = code // suggest: the twin is its check
	}
	switch w := must(json.Marshal(want)); {
	case code != status:
		return fmt.Errorf("answered %d %s, want %d", code, got, status)
	case code != http.StatusOK:
		return nil
	case want != nil && !bytes.Equal(out.Rows, w):
		return fmt.Errorf("rows %s\nthe reference %s", out.Rows, w)
	}
	return check()
}

// shrink returns the smallest variant of failing case c it finds that
// still fails: steps dropped first, then the table's rows halved.
func (p sessProfile) shrink(c *sessCase) *sessCase {
	fails := func(d sessCase) bool { return d.run(p, map[string]bool{}) != nil }
	for k := len(c.steps) - 1; k >= 0; k-- {
		if d := (sessCase{c.seed, c.rows, c.store, c.pool, slices.Delete(slices.Clone(c.steps), k, k+1)}); fails(d) {
			c = &d
		}
	}
	for d := *c; d.rows > 1 && fails(sessCase{d.seed, d.rows / 2, d.store, d.pool, d.steps}); d = *c {
		c.rows /= 2
	}
	return c
}

// sessionGen plays p's checked-in cases, then its seeds' drawn cases; a
// failing drawn case is shrunk and printed.
func sessionGen(t *testing.T, p sessProfile) {
	seen := map[string]bool{}
	for k := range p.cases {
		if err := p.cases[k].run(p, seen); err != nil {
			t.Fatalf("checked-in case %d: %v", k, err)
		}
	}
	p.carry = false
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	for k := range p.seeds {
		seed := int64(h.Sum64()>>8) + int64(k)
		rng := rand.New(rand.NewSource(seed))
		c := &sessCase{seed: seed, rows: 64 + rng.Intn(200), store: p.store || rng.Intn(3) > 0}
		if c.store {
			c.pool = []int64{0, 256, 16 << 10}[rng.Intn(3)]
		}
		if err := c.run(p, seen); err != nil {
			c = p.shrink(c)
			t.Fatalf("%v\nshrunk to:\n%s", c.run(p, map[string]bool{}), strings.ReplaceAll(fmt.Sprintf("%#v", *c), "server.", ""))
		}
	}
	for _, f := range strings.Fields(p.want) {
		if !seen[f] {
			t.Errorf("harness coverage: no case reached %q (reached %v)", f, seen)
		}
	}
}

// timeLits turns a string literal compared with the time column back
// into the time it renders: cleanedSql quotes a time clause's value,
// which a statement cannot compare with a time.
func timeLits(e expr.Expr) {
	switch x := e.(type) {
	case *expr.Not:
		timeLits(x.X)
	case *expr.Bin:
		if c, ok := x.L.(*expr.Col); ok && c.Name == "t" {
			if l, ok := x.R.(*expr.Lit); ok && l.Val.T == engine.TString {
				x.R = expr.NewLit(engine.NewTime(must(time.Parse(time.RFC3339, l.Val.S))))
			}
		}
		timeLits(x.L)
		timeLits(x.R)
	}
}

// Every dimension at once.
func TestSessionDifferential(t *testing.T) {
	sessionGen(t, sessProfile{seeds: 40, dims: gAll, want: "full carried requery growing founding retention restart gone " +
		"out-of-range /api/clean /api/reset cancelled/api/query"})
}

// A step cancelled at a drawn poll answers 499 and publishes nothing.
// The case: a reset cancelled after a clean once dropped the cleaning.
func TestSessionCancellation(t *testing.T) {
	sessionGen(t, sessProfile{cases: []sessCase{{3791861043560080, 115, false, 0, []sessStep{
		{"/api/query", `{"session":"s","sql":"SELECT i AS g0, count(*) AS a0 FROM p WHERE (j != 2) GROUP BY i"}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"examplesCond":"f > 0","metric":"diff","metricParams":{"c":-3},"session":"s","suspect":[0,5]}`, 0, 0},
		{"/api/clean", `{"explanation":1,"session":"s"}`, 0, 0},
		{"/api/reset", `{"session":"s"}`, 2, 0},
		{"/api/query", `{"session":"s","sql":"SELECT i AS g0, count(*) AS a0 FROM p WHERE (j != 2) GROUP BY i"}`, 0, 0},
	}}}, seeds: 40, dims: gRetain, force: gAppend | gCancel, want: "cancelled/api/query cancelled/api/debug " +
		"cancelled/api/clean cancelled/api/reset cancelled/api/append"})
}

// Appends, some malformed, and re-queries that advance the result. The
// case: a re-query after an append advances, so the next debug carries.
func TestAppendEndpointAndIncrementalRequery(t *testing.T) {
	sessionGen(t, sessProfile{cases: []sessCase{{10, 300, false, 0, []sessStep{
		{"/api/query", `{"session":"s","sql":"SELECT s AS g0, sum(f) AS a0 FROM p GROUP BY s"}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[0,1]}`, 0, 0},
		{"/api/append", `{"rows":40,"seed":1}`, 0, 0},
		{"/api/query", `{"session":"s","sql":"SELECT s AS g0, sum(f) AS a0 FROM p GROUP BY s"}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[0,1]}`, 0, 0},
	}}}, carry: true, seeds: 20, force: gAppend, want: "growing founding malformed requery"})
}

// The same question after an append carries the analysis. The case: a
// debug after an append that grows its groups, with no re-query between.
func TestDebugAdvanceAfterAppend(t *testing.T) {
	sessionGen(t, sessProfile{cases: []sessCase{{10, 300, true, 0, []sessStep{
		{"/api/query", `{"session":"s","sql":"SELECT s AS g0, sum(f) AS a0 FROM p GROUP BY s"}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[0,1]}`, 0, 0},
		{"/api/append", `{"rows":40,"seed":1}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[0,1]}`, 0, 0},
	}}}, carry: true, seeds: 20, force: gAppend, want: "carried full"})
}

// Suspects picked before an append that reorders the result are mapped
// by group. The case: an index out of range of the payload once skipped
// every other's remap, and the debug explained groups never shown.
func TestDebugSuspectRemapAcrossAppend(t *testing.T) {
	sessionGen(t, sessProfile{cases: []sessCase{{11496668486326444, 27, false, 0, []sessStep{
		{"/api/query", `{"session":"s","sql":"SELECT j AS g0, count(DISTINCT s) AS a0, sum(f) AS a1, var(f) AS a2 FROM p GROUP BY j"}`, 0, 0},
		{"/api/append", `{"rows":1,"seed":606988318866961589,"fresh":730}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"examplesCond":"s = 'a'","metric":"toohigh","metricParams":{"c":3},"session":"s","suspect":[0,2,3,4]}`, 0, 0},
	}}}, seeds: 30, force: gAppend, want: "remapped out-of-range"})
}

func TestAppendQueryRetentionLoop(t *testing.T) {
	sessionGen(t, sessProfile{seeds: 20, force: gAppend | gRetain, want: "retention requery growing"})
}

// A debug after a retention runs in full over the retained rows, and a
// group that lost its first row, or an example row, answers 409. The
// cases: a second debug, and a zoom's row ids, after a refreshing debug.
func TestDebugAfterRetentionRefreshes(t *testing.T) {
	sessionGen(t, sessProfile{cases: []sessCase{{59510550770880928, 82, false, 0, []sessStep{
		{"/api/query", `{"session":"s","sql":"SELECT bucket(i, 3) AS g0, sum(f) AS a0, sum(f) AS a1 FROM p GROUP BY bucket(i, 3)"}`, 0, 0},
		{"/api/retention", `{"table":"p","max_rows":15}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"examplesCond":"f > 0","metric":"toolow","metricParams":{"c":2},"session":"s","suspect":[2,4]}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"examplesCond":"f > 0","metric":"toolow","metricParams":{"c":2},"session":"s","suspect":[2,4]}`, 0, 0},
	}}, {12, 100, false, 0, []sessStep{
		{"/api/append", `{"rows":30,"seed":1,"fresh":1}`, 0, 0},
		{"/api/query", `{"session":"s","sql":"SELECT s AS g0, sum(f) AS a0 FROM p GROUP BY s"}`, 0, 0},
		{"/api/retention", `{"table":"p","max_rows":60}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[6]}`, 0, 0},
		{"/api/zoom", `{"session":"s","suspect":[6]}`, 0, 0},
		{"/api/debug", `{"aggItem":-1,"exampleRows":[100,101,102,103,104,105,106,107,108],"metric":"toohigh","metricParams":{"c":0},"session":"s","suspect":[6]}`, 0, 0},
	}}}, seeds: 20, force: gRetain, want: "full gone retention example-rebased"})
}

// A zoom on a payload from before a retention answers its rows, though
// their segment files are gone.
func TestZoomAcrossRetention(t *testing.T) {
	sessionGen(t, sessProfile{seeds: 20, store: true, force: gRetain, want: "zoom-retained"})
}

// A read that fails while a request builds lineage answers a retryable 503.
func TestLineageBuildLoadFailure(t *testing.T) {
	sessionGen(t, sessProfile{seeds: 40, store: true, dims: gAppend, force: gFault, want: "faulted/api/zoom faulted/api/debug faulted/api/query"})
}
