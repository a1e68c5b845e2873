package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// scriptBytes concatenates the pre-encoded bodies of a script's first
// n flows (run-time-bound requests contribute their typed fields).
func scriptBytes(sc script, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		for _, r := range sc.next() {
			b.WriteString(r.op + " " + r.tag + " " + r.key + " " + r.session + " ")
			b.Write(r.body)
			b.Write(mustJSON([]any{r.suspectGT, r.suspectMax, r.limit, r.metricC, r.examplesCond, r.maxRows}))
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestScriptsAreAFunctionOfTheSeed(t *testing.T) {
	makers := map[string]func(seed int64) script{
		"session": func(seed int64) script { return newSessionScript(seed, 1) },
		"scan":    func(seed int64) script { return newScanScript(seed, 1, 400_000) },
		"stream":  func(seed int64) script { return newStreamScript(seed, 200_000, []int{3, 17, 40}) },
	}
	for name, mk := range makers {
		a, b, c := scriptBytes(mk(7), 25), scriptBytes(mk(7), 25), scriptBytes(mk(8), 25)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different scripts", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
	}
	// Two clients of one run share the literal pools but not the order.
	if bytes.Equal(scriptBytes(newScanScript(7, 0, 400_000), 5), scriptBytes(newScanScript(7, 1, 400_000), 5)) {
		t.Error("scan: clients 0 and 1 play the same script")
	}
}

func TestScanFlowShape(t *testing.T) {
	flow := newScanScript(3, 0, 400_000).next()
	if len(flow) != len(scanShapes) {
		t.Fatalf("flow has %d requests, want %d", len(flow), len(scanShapes))
	}
	tags, sessions := map[string]int{}, map[string]bool{}
	for _, r := range flow {
		tags[r.tag]++
		sessions[r.session] = true
	}
	if tags["distinct"] != 1 || tags["grouped"] != 4 || len(tags) != 8 {
		t.Errorf("shape counts %v", tags)
	}
	if len(sessions) != len(flow) {
		t.Errorf("%d sessions for %d queries: every slot needs its own", len(sessions), len(flow))
	}
	sc := newScanScript(3, 0, 400_000)
	last := map[string]string{}
	for i := 0; i < 200; i++ {
		for _, r := range sc.next() {
			if last[r.session] == r.sql {
				t.Fatalf("flow %d: session %s gets %q twice in a row", i, r.session, r.sql)
			}
			last[r.session] = r.sql
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10} {
		if got := percentile(vals, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("got %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("got %g %g %g", q1, med, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if share(1, 0) != 0 || share(1, 4) != 0.25 {
		t.Error("share")
	}
}

func TestVerdict(t *testing.T) {
	lower := def{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := def{Name: "x_per_s", Better: "higher", Bound: 0.10}
	sum := func(vals ...float64) summary {
		_, med, _ := quartiles(vals)
		return summary{Median: med, Values: vals}
	}
	cases := []struct {
		d    def
		a, b summary
		want string
	}{
		{lower, sum(100, 101, 99, 100, 100), sum(105, 104, 106, 105, 105), "within-bound"},
		{lower, sum(100, 101, 99, 100, 100), sum(115, 114, 116, 115, 115), "worse"},
		{lower, sum(100, 101, 99, 100, 100), sum(85, 84, 86, 85, 85), "better"},
		{higher, sum(100, 101, 99, 100, 100), sum(85, 84, 86, 85, 85), "worse"},
		{higher, sum(100, 101, 99, 100, 100), sum(115, 114, 116, 115, 115), "better"},
		{lower, sum(100, 130, 70, 100, 100), sum(115, 114, 116, 115, 115), "unresolved"},
		{def{Name: "failed_share", Better: "lower"}, sum(0, 0, 0), sum(0, 0.01, 0.01), "worse"},
		{def{Name: "failed_share", Better: "lower"}, sum(0, 0, 0), sum(0, 0, 0), "within-bound"},
	}
	for i, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueAndBenchmarkJSON(t *testing.T) {
	gatedE2E, gatedLayer := map[string]def{}, map[string]def{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %g", d.Name, d.Bound)
		}
		switch {
		case d.Gate && d.Layer:
			gatedLayer[d.Name] = d
		case d.Gate:
			gatedE2E[d.Name] = d
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(gatedE2E); n < 1 || n > 16 {
		t.Errorf("%d gated end-to-end metrics", n)
	}
	if n := len(gatedLayer); n < 1 || n > 128 {
		t.Errorf("%d gated per-layer metrics", n)
	}
	if d := gatedE2E["setup_s"]; d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s: %+v", d)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || w.clients < 1 || w.clients > 2 {
			t.Errorf("workload %+v", w)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
	if len(bj.EndToEnd) != len(gatedE2E) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the catalogue gates %d", len(bj.EndToEnd), len(gatedE2E))
	}
	for _, e := range bj.EndToEnd {
		if d, ok := gatedE2E[e.Name]; !ok || d.Unit != e.Unit || d.Better != e.Better || d.Bound != e.Bound {
			t.Errorf("end_to_end %+v disagrees with the catalogue's %+v", e, d)
		}
	}
	if len(bj.PerLayer) != len(gatedLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the catalogue gates %d", len(bj.PerLayer), len(gatedLayer))
	}
	for _, e := range bj.PerLayer {
		if d, ok := gatedLayer[e.Name]; !ok || d.Unit != e.Unit || d.Better != e.Better {
			t.Errorf("per_layer %+v disagrees with the catalogue's %+v", e, d)
		}
	}
}

// TestSmoke plays every workload's script end to end at a fiftieth of
// its size against an httptest server over server.New, with the oracle
// on: every response of every endpoint must verify.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full
		w.intelRows = 20_000
		if w.fecRows > 0 {
			w.fecRows = 5_000
		}
		t.Run(w.name, func(t *testing.T) {
			fx := w.generate() // the oracle's twin; the server gets tables of its own
			if !w.durable {
				runSmoke(t, &w, fx, server.New(w.generate().db))
				return
			}
			dir := filepath.Join(t.TempDir(), "data")
			if err := fx.ingest(dir); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(dir, store.Options{SyncEvery: 1, MaxResidentBytes: w.cacheBytes, Logf: quietLogf})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			srv := server.New(st.Eng())
			srv.AttachStore(st)
			runSmoke(t, &w, fx, srv)
		})
	}
}

func runSmoke(t *testing.T, w *workload, fx *fixture, srv *server.Server) {
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ls := &liveServer{w: w, fx: fx}
	for c := 0; c < w.clients; c++ {
		rec := newRecorder(c)
		ls.recs = append(ls.recs, rec)
		sc, send := w.script(5, c, fx), httpTransport(ts.URL)
		rec.warmUp(sc, send, 1)
		rec.measure(sc, send, 2, time.Now().Add(time.Minute), nil)
	}
	ls.verify(newOracle(fx.db))
	res := &runResult{Metrics: metrics{}, Sizes: map[string]int{}}
	endToEnd(ls.recs, &window{wallS: 1}, res.Metrics, res)
	for _, f := range res.Failures {
		t.Errorf("client %d request %d (%s): %s", f.Client, f.Index, f.Op, f.Why)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	for _, name := range []string{"requests_per_s", "flow_p50_ms", "query_p50_ms", "query_p50_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name])
		}
	}
}
