package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
)

// The oracle answers every request in process, on a twin of the
// server's tables, by calling the layers below the server directly:
// exec.RunSQL for rows, core.Debug for ranked predicates. It runs after
// the measured window, so it never competes with the server for the
// two cores. Floats must match bit for bit: encoding/json prints the
// shortest decimal that reads back as the same float64.

// jsonCell renders an engine value the way the server puts it on the
// wire and json.Unmarshal gives it back (every number a float64).
func jsonCell(v engine.Value) any {
	switch v.T {
	case engine.TNull:
		return nil
	case engine.TBool:
		return v.Bool()
	case engine.TInt:
		return float64(v.I)
	case engine.TFloat:
		return v.F
	case engine.TTime:
		return v.Time().Format("2006-01-02T15:04:05Z")
	default:
		return v.S
	}
}

func tableRows(t *engine.Table) [][]any {
	rows := make([][]any, t.NumRows())
	for i := range rows {
		vals := t.Row(i)
		row := make([]any, len(vals))
		for c, v := range vals {
			row[c] = jsonCell(v)
		}
		rows[i] = row
	}
	return rows
}

// diffRows names the first cell where got differs from want. Floats
// must be equal to the bit, unless relTol > 0 allows that relative
// difference.
func diffRows(got, want [][]any, relTol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, oracle has %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] && !closeFloats(got[i][c], want[i][c], relTol) {
				return fmt.Errorf("row %d col %d: got %v, oracle has %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	return nil
}

func closeFloats(a, b any, relTol float64) bool {
	x, okA := a.(float64)
	y, okB := b.(float64)
	return okA && okB && relTol > 0 && math.Abs(x-y) <= relTol*math.Max(math.Abs(x), math.Abs(y))
}

type queryResp struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Applied   []string `json:"applied"`
	Truncated bool     `json:"truncated"`
}

// checkQueryResp compares a /api/query or /api/clean body with res,
// floats to the bit.
func checkQueryResp(body []byte, res *exec.Result, applied []string) error {
	return checkQueryRespTol(body, res, applied, 0)
}

func checkQueryRespTol(body []byte, res *exec.Result, applied []string, relTol float64) error {
	var got queryResp
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var cols []string
	for _, c := range res.Table.Schema() {
		cols = append(cols, c.Name)
	}
	if !reflect.DeepEqual(got.Columns, cols) {
		return fmt.Errorf("columns %v, oracle has %v", got.Columns, cols)
	}
	if got.Truncated {
		return errors.New("result truncated")
	}
	if len(got.Applied) != len(applied) || (len(applied) > 0 && !reflect.DeepEqual(got.Applied, applied)) {
		return fmt.Errorf("applied %v, oracle has %v", got.Applied, applied)
	}
	return diffRows(got.Rows, tableRows(res.Table), relTol)
}

type debugResp struct {
	LineageSize  int    `json:"lineageSize"`
	Mode         string `json:"mode"`
	Explanations []struct {
		Predicate string `json:"predicate"`
	} `json:"explanations"`
}

// checkDebugResp compares a /api/debug body with dr: the lineage size
// and the top three predicates, in order.
func checkDebugResp(body []byte, dr *core.DebugResult) (mode string, err error) {
	var got debugResp
	if err := json.Unmarshal(body, &got); err != nil {
		return "", err
	}
	if got.LineageSize != len(dr.F) {
		return got.Mode, fmt.Errorf("lineage %d rows, oracle has %d", got.LineageSize, len(dr.F))
	}
	if got.Mode != dr.Plan.Mode {
		return got.Mode, fmt.Errorf("mode %q, oracle ran %q", got.Mode, dr.Plan.Mode)
	}
	for i := 0; i < 3 && i < len(dr.Explanations); i++ {
		want := dr.Explanations[i].Pred.String()
		if i >= len(got.Explanations) {
			return got.Mode, fmt.Errorf("%d explanations, oracle's #%d is %s", len(got.Explanations), i, want)
		}
		if got.Explanations[i].Predicate != want {
			return got.Mode, fmt.Errorf("explanation %d is %s, oracle has %s", i, got.Explanations[i].Predicate, want)
		}
	}
	return got.Mode, nil
}

// resultSuspects applies the client's selection rule to an oracle result.
func resultSuspects(res *exec.Result, r *request) []int {
	return pickSuspects(res.Table.NumRows(), func(i int) (float64, bool) {
		v := res.Table.Value(i, stdTempCol)
		return v.Float(), !v.IsNull()
	}, r.suspectGT, r.suspectMax)
}

func debugRequest(res *exec.Result, r *request, suspect []int) (core.DebugRequest, error) {
	examples, err := core.ExamplesWhere(res, suspect, r.examplesCond)
	if err != nil {
		return core.DebugRequest{}, err
	}
	metric, err := errmetric.New("toohigh", map[string]float64{"c": r.metricC})
	if err != nil {
		return core.DebugRequest{}, err
	}
	return core.DebugRequest{Result: res, AggItem: -1, Suspect: suspect, Examples: examples, Metric: metric}, nil
}

// oracle verifies the fresh-session workloads, where a request's
// answer depends only on the request: each distinct statement and each
// distinct debug question is computed once.
type oracle struct {
	db      *engine.DB
	results map[string]*exec.Result
	debugs  map[string]*core.DebugResult
}

func newOracle(db *engine.DB) *oracle {
	return &oracle{db: db, results: map[string]*exec.Result{}, debugs: map[string]*core.DebugResult{}}
}

func (o *oracle) result(sql string) (*exec.Result, error) {
	if res, ok := o.results[sql]; ok {
		return res, nil
	}
	res, err := exec.RunSQL(o.db, sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.results[sql] = res
	return res, nil
}

// debug answers a debug request (or the one a clean request follows).
func (o *oracle) debug(res *exec.Result, r *request, suspect []int) (*core.DebugResult, error) {
	key := fmt.Sprintf("%s|%g|%g|%s", r.sql, r.suspectGT, r.metricC, r.examplesCond)
	if dr, ok := o.debugs[key]; ok {
		return dr, nil
	}
	req, err := debugRequest(res, r, suspect)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	dr, err := core.Debug(req)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.debugs[key] = dr
	return dr, nil
}

func (o *oracle) check(s *sample) error {
	r := s.req
	res, err := o.result(r.sql)
	if err != nil {
		return err
	}
	if r.op == "query" {
		return checkQueryResp(s.body, res, nil)
	}
	suspect := resultSuspects(res, r)
	if r.op != "clean" && !reflect.DeepEqual(r.suspect, suspect) {
		return fmt.Errorf("client picked suspects %v, oracle picks %v", r.suspect, suspect)
	}
	switch r.op {
	case "suggest":
		return checkSuggest(s.body, res, suspect)
	case "zoom":
		return checkZoom(s.body, res, suspect, r.limit)
	case "debug":
		dr, err := o.debug(res, r, suspect)
		if err != nil {
			return err
		}
		_, err = checkDebugResp(s.body, dr)
		return err
	case "clean":
		dr, err := o.debug(res, r, suspect)
		if err != nil {
			return err
		}
		pred := dr.Explanations[0].Pred
		cleaned, ok := o.results[r.key] // a clean's key names the debug it follows
		if !ok {
			if cleaned, err = core.CleanAndRequery(res, pred); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			o.results[r.key] = cleaned
		}
		return checkQueryResp(s.body, cleaned, []string{pred.String()})
	}
	return fmt.Errorf("oracle: no check for %s", r.op)
}

// checkSuggest recomputes the prefilled expected value: the median of
// the non-suspect groups' first aggregate.
func checkSuggest(body []byte, res *exec.Result, suspect []int) error {
	var got struct {
		SuggestedC  float64 `json:"suggestedC"`
		Recommended string  `json:"recommended"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	in := map[int]bool{}
	for _, i := range suspect {
		in[i] = true
	}
	var rest []float64
	col := res.AggOrdinals()[0]
	for i := 0; i < res.Table.NumRows(); i++ {
		if v := res.Table.Value(i, col); !in[i] && !v.IsNull() {
			rest = append(rest, v.Float())
		}
	}
	if want := errmetric.SuggestReference(rest); got.SuggestedC != want {
		return fmt.Errorf("suggestedC %v, oracle has %v", got.SuggestedC, want)
	}
	if got.Recommended != "toohigh" {
		return fmt.Errorf("recommended %q, the suspects run hot", got.Recommended)
	}
	return nil
}

// checkZoom compares the suspect lineage rows the server shipped with
// the twin's, row id first.
func checkZoom(body []byte, res *exec.Result, suspect []int, limit int) error {
	var got struct {
		Rows      [][]any `json:"rows"`
		Truncated bool    `json:"truncated"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	lineage := res.Lineage(suspect)
	if truncated := len(lineage) > limit; truncated != got.Truncated {
		return fmt.Errorf("truncated=%v with %d lineage rows and limit %d", got.Truncated, len(lineage), limit)
	} else if truncated {
		lineage = lineage[:limit]
	}
	want := make([][]any, len(lineage))
	for i, ri := range lineage {
		vals := res.Source.Row(ri)
		row := make([]any, 0, len(vals)+1)
		row = append(row, float64(ri))
		for _, v := range vals {
			row = append(row, jsonCell(v))
		}
		want[i] = row
	}
	return diffRows(got.Rows, want, 0)
}

// verify checks every sample the fresh-session clients recorded and
// marks the ones the oracle disagrees with.
func (o *oracle) verify(recs []*recorder) {
	for _, rec := range recs {
		for _, s := range rec.samples {
			if s.fail != "" {
				continue
			}
			if s.same != nil {
				if s.same.fail != "" {
					s.fail = s.same.fail
				}
				continue
			}
			if err := o.check(s); err != nil {
				s.fail = "oracle: " + err.Error()
			}
		}
	}
}

// streamOracle verifies stream_monitor, where every answer depends on
// everything sent before it. It replays the client's samples in order
// on an in-memory twin: batches through engine.DB.Append, the window
// query through exec.Advance, the debug through core.DebugAdvance,
// retention through engine.DB.Retain. That chain does what the server
// does in the order the server does it, so floats agree to the bit. It
// ends with a from-scratch run of the window query over what is left
// (base + appended − retained), which the last query response must
// equal to within 1e-9: a carried average has summed the same values as
// a fresh scan, but not in the same order (the scan's shard boundary
// falls in another window), and float addition is not associative.
type streamOracle struct {
	db        *engine.DB
	res       *exec.Result
	dbg       *core.DebugResult
	last      *sample       // latest query sample
	lastTable *engine.Table // the twin's readings as of that query

	appended, dropped int
	modes             map[string]int
}

func newStreamOracle(db *engine.DB) *streamOracle {
	return &streamOracle{db: db, modes: map[string]int{}}
}

// appendValues converts a batch's JSON-typed cells to engine values by
// the readings schema: unix seconds, two ints, four floats.
func appendValues(rows [][]any) [][]engine.Value {
	out := make([][]engine.Value, len(rows))
	for i, r := range rows {
		out[i] = []engine.Value{
			engine.NewTimeUnix(r[0].(int64)), engine.NewInt(int64(r[1].(int))), engine.NewInt(int64(r[2].(int))),
			engine.NewFloat(r[3].(float64)), engine.NewFloat(r[4].(float64)), engine.NewFloat(r[5].(float64)), engine.NewFloat(r[6].(float64)),
		}
	}
	return out
}

func (o *streamOracle) check(s *sample) error {
	r := s.req
	switch r.op {
	case "append":
		nt, err := o.db.Append("readings", appendValues(r.rows))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.appended += len(r.rows)
		var got struct {
			Appended, Rows int
			Durable        bool
		}
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		if got.Appended != len(r.rows) || got.Rows != nt.NumRows() || !got.Durable {
			return fmt.Errorf("append acknowledged %+v, oracle has %d rows", got, nt.NumRows())
		}
	case "query":
		t, err := o.db.Table("readings")
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		// The server carries a session's result only over a table that
		// has not shrunk; after retention it runs the statement afresh
		// and the next debug starts from nothing. So does the twin.
		if o.res != nil && t.NumRows() >= o.res.Source.NumRows() {
			o.res, err = exec.Advance(o.res, t)
		} else {
			o.res, err = nil, nil
		}
		if o.res == nil || err != nil {
			if o.res, err = exec.RunSQL(o.db, r.sql); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			o.dbg = nil
		}
		o.last, o.lastTable = s, t
		return checkQueryResp(s.body, o.res, nil)
	case "debug":
		suspect := resultSuspects(o.res, r)
		if !reflect.DeepEqual(r.suspect, suspect) {
			return fmt.Errorf("client picked suspects %v, oracle picks %v", r.suspect, suspect)
		}
		req, err := debugRequest(o.res, r, suspect)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		dr, err := core.DebugAdvance(o.dbg, req)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.dbg = dr
		mode, err := checkDebugResp(s.body, dr)
		o.modes[mode]++
		return err
	case "retention":
		nt, st, err := o.db.Retain("readings", engine.RetentionPolicy{MaxRows: r.maxRows})
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.dropped += st.DroppedRows
		var got struct {
			DroppedRows int `json:"dropped_rows"`
			Rows, Base  int
		}
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		if got.DroppedRows != st.DroppedRows || got.Rows != nt.NumRows() || got.Base != nt.Base() {
			return fmt.Errorf("retention answered %+v, oracle dropped %d leaving %d rows at base %d", got, st.DroppedRows, nt.NumRows(), nt.Base())
		}
	default:
		return fmt.Errorf("oracle: no check for %s", r.op)
	}
	return nil
}

// verify replays the single client's samples. A request that failed on
// the wire never changed the server, so the twin skips it too.
func (o *streamOracle) verify(rec *recorder) {
	for _, s := range rec.samples {
		if s.fail != "" {
			continue
		}
		if err := o.check(s); err != nil {
			s.fail = "oracle: " + err.Error()
		}
	}
	if o.last == nil || o.last.fail != "" {
		return
	}
	// The final answer against a from-scratch run over what was left.
	scratch, err := exec.RunOn(o.lastTable, o.res.Stmt)
	if err == nil {
		err = checkQueryRespTol(o.last.body, scratch, nil, 1e-9)
	}
	if err != nil {
		o.last.fail = "oracle (from scratch): " + err.Error()
	}
}
