package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/store"
)

// workload is one traffic mix against one server configuration. The
// sizes are frozen: they were chosen once, on the commit that added the
// benchmark, so that three set-ups, the measured script and the oracle
// pass of every workload fit the driver's time cap. Changing them
// starts a new baseline.
type workload struct {
	name string
	why  string
	kind string // which script: session, scan or stream

	intelRows  int   // readings rows
	fecRows    int   // donations rows (0 = table absent)
	durable    bool  // serve a store directory the harness wrote (-data, -sync-every 1)
	cacheBytes int64 // -cache-bytes: buffer pool size (0 = fully resident)
	clients    int   // closed-loop connections, at most 2 (the box has 2 cores)
	warmFlows  int   // unmeasured flows per client before the clock starts
	// flowsPerSecond sizes the measured script: each client plays
	// flowsPerSecond × -seconds flows, the number it got through per
	// second on the commit that added the benchmark. A fixed count, not
	// a fixed time, so both sides of a comparison do identical work and
	// counts (sessions held, masks built, rows appended) repeat.
	flowsPerSecond float64
}

// flows is the measured script length per client for a window meant to
// take about seconds.
func (w *workload) flows(seconds int) int {
	return int(math.Ceil(w.flowsPerSecond * float64(seconds)))
}

var workloads = []workload{
	{
		name: "intel_session", kind: "session",
		why:       "the paper's demo flow on fresh sessions, in memory: Debug (core, influence, dtree, ranker) does most of the work, exec little, store none",
		intelRows: 100_000, clients: 2, warmFlows: 3, flowsPerSecond: 7,
	},
	{
		name: "scan_mix", kind: "scan",
		why:       "ad hoc analyst queries in eight shapes on a store that fits in memory: exec, predicate, agg and bitset do the work, core none",
		intelRows: 400_000, fecRows: 60_000, durable: true, clients: 2, warmFlows: 2, flowsPerSecond: 1.2,
	},
	{
		name: "scan_outofcore", kind: "scan",
		why:       "the same requests as scan_mix through an 8 MiB buffer pool a third of the table's size: any difference from scan_mix is store pool, fault and zone-map cost",
		intelRows: 400_000, fecRows: 60_000, durable: true, cacheBytes: 8 << 20, clients: 2, warmFlows: 1, flowsPerSecond: 0.5,
	},
	{
		name: "stream_monitor", kind: "stream",
		why:       "one monitoring session: durable 1000-row appends, carried re-query and re-debug, retention; Advance not Run, carried not full, writes not reads",
		intelRows: 200_000, durable: true, clients: 1, warmFlows: 8, flowsPerSecond: 18,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fixture is the in-process twin of the tables the server loads: the
// same generators with the same configuration, so the oracle and the
// server start from identical rows.
type fixture struct {
	db      *engine.DB
	failing []int   // motes with the battery-death failure, ascending
	genMS   float64 // datasets.* time
}

// fixtureSeed is the generator seed of every table. The run's -seed
// drives the scripts (every literal, every order, every appended row)
// but not the tables: which motes die and when decides what Debug's
// trees look like, and with it a tenth of its time, so tables that
// changed with the seed would make runs on different seeds measure
// different work.
const fixtureSeed = 1

func (w *workload) generate() *fixture {
	t0 := time.Now()
	fx := &fixture{db: engine.NewDB()}
	readings, truth := datasets.Intel(datasets.IntelConfig{Rows: w.intelRows, Seed: fixtureSeed})
	fx.db.Register(readings)
	if w.fecRows > 0 {
		donations, _ := datasets.FEC(datasets.FECConfig{Rows: w.fecRows, Seed: fixtureSeed})
		fx.db.Register(donations)
	}
	fx.genMS = float64(time.Since(t0)) / float64(time.Millisecond)
	seen := map[int]bool{}
	for i, bad := range truth {
		if bad {
			seen[int(readings.Value(i, 2).I)] = true // moteid
		}
	}
	for m := range seen {
		fx.failing = append(fx.failing, m)
	}
	sort.Ints(fx.failing)
	return fx
}

// ingest writes the fixture's tables into a new store directory the
// way cmd/dbwipes ingests its demo tables (one WAL record per 8192
// rows), and closes it: the server then recovers the directory, which
// is what makes sealed segments fault through the buffer pool when
// -cache-bytes is set.
func (fx *fixture) ingest(dir string) error {
	st, err := store.Open(dir, store.Options{SyncEvery: 1 << 30}) // Close syncs
	if err != nil {
		return err
	}
	for _, name := range fx.db.Names() {
		t, err := fx.db.Table(name)
		if err != nil {
			return err
		}
		if err := st.CreateTable(name, t.Schema(), engine.DefaultSegmentBits); err != nil {
			return err
		}
		const chunk = 8192
		for lo := 0; lo < t.NumRows(); lo += chunk {
			hi := min(lo+chunk, t.NumRows())
			rows := make([][]engine.Value, 0, hi-lo)
			for r := lo; r < hi; r++ {
				rows = append(rows, t.Row(r))
			}
			if _, err := st.Append(name, rows); err != nil {
				return err
			}
		}
	}
	return st.Close()
}

// serverArgs is the dbwipes command line (without -addr). In memory
// the server generates the readings itself from the same seed as the
// twin; a durable workload serves the directory the harness ingested.
func (w *workload) serverArgs(dir string) []string {
	if !w.durable {
		return []string{"-intel-rows", strconv.Itoa(w.intelRows), "-fec-rows", "0", "-seed", strconv.Itoa(fixtureSeed)}
	}
	args := []string{"-intel-rows", "0", "-fec-rows", "0", "-data", dir, "-sync-every", "1"}
	if w.cacheBytes > 0 {
		args = append(args, "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
	}
	return args
}

func (w *workload) script(seed int64, client int, fx *fixture) script {
	switch w.kind {
	case "session":
		return newSessionScript(seed, client)
	case "scan":
		return newScanScript(seed, client, w.intelRows)
	case "stream":
		return newStreamScript(seed, w.intelRows, fx.failing)
	}
	panic("bench: unknown workload kind " + w.kind)
}
