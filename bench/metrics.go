package main

// metric is one measured value. N is the number of samples behind a
// percentile or rate (0 where it does not apply).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics is what one run measured, by name. set panics on a name the
// catalogue does not know, so nothing is reported without a unit, a
// direction and a place in the README.
type metrics map[string]metric

func (m metrics) set(name string, v float64) { m.setN(name, v, 0) }

func (m metrics) setN(name string, v float64, n int) {
	d, ok := catalogue[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	m[name] = metric{Value: v, Unit: d.Unit, N: n}
}

// def describes one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before -compare calls it
// worse (0 for per-layer metrics, which are never gated).
//
// Gate marks the metrics BENCHMARK.json lists. Its contract wants every
// listed metric from every workload, and never a constant: so the gated
// end-to-end metrics are the ones every workload has (flows, queries,
// throughput, CPU, memory, set-up), and the gated per-layer metrics are
// the times every workload has plus counts and shares, which may
// honestly be 0 where a workload bypasses a layer. Everything else —
// debug, clean and append latencies, per-stage and per-shape times — is
// measured, printed, written to the result file and judged by -compare
// on the workloads that have it.
type def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  bool // per-layer (from the traced run) rather than end-to-end
	Gate   bool
}

var defs = []def{
	// End to end, gated: every workload reports these.
	// The bounds are what this shared two-core box can resolve: three
	// times the widest spread any workload showed over ten seeds
	// (stream_monitor's, whose fsyncs and small requests feel the
	// neighbours most), or the contract's ceiling of 0.25.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gate: true},
	{Name: "flow_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "cpu_ms_per_request", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15, Gate: true},

	// End to end, judged by -compare on the workloads that issue them.
	// The tail percentiles are here and not above because on
	// stream_monitor their spread reached 18%, too close to the ceiling.
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "flow_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "debug_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "debug_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "clean_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "clean_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "suggest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "suggest_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "zoom_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "zoom_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "append_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "retention_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "retention_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "append_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "disk_bytes_per_row", Unit: "B/row", Better: "lower", Bound: 0.02},
}

var catalogue = map[string]def{}

// layerDefs are the per-layer metrics, layer = module name. Gated ones
// go in BENCHMARK.json's per_layer list (see def).
var layerDefs = []def{
	// Harness bookkeeping, so generator interference is visible.
	{Name: "harness.cpu_s", Unit: "s", Better: "lower", Layer: true},
	{Name: "harness.wall_s", Unit: "s", Better: "lower", Layer: true},

	{Name: "dbwipes.start_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "dbwipes.restart_ms", Unit: "ms", Better: "lower", Layer: true},
	{Name: "datasets.generate_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},

	{Name: "server.shed", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "server.deadline_exceeded", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "server.cancelled", Unit: "count", Better: "lower", Layer: true, Gate: true},

	{Name: "exec.segs_skipped_per_query", Unit: "count", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.chunks_faulted_per_query", Unit: "count", Better: "lower", Layer: true, Gate: true},

	{Name: "store.pool_hit_rate", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "store.pool_misses", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "store.pool_evictions", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "store.pool_used_bytes", Unit: "B", Better: "lower", Layer: true, Gate: true},
	{Name: "store.sealed_on_disk", Unit: "count", Better: "lower", Layer: true, Gate: true},

	// From the in-process replay. Times every workload has are gated;
	// so are counts and shares, which are 0 where a layer is bypassed.
	{Name: "dbwipes.http_overhead_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "server.flow_handle_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "server.query_handle_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "server.query_self_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "exec.query_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "predicate.mask_miss_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "predicate.mask_hit_ms", Unit: "ms", Better: "lower", Layer: true, Gate: true},
	{Name: "server.self_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "sqlparse.share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "exec.share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "store.share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "engine.share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_preprocess_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_featurize_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_enumerate_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_predicates_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_rank_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_full_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_carried_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "core.debug_reexpanded_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_candidates", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "core.debug_lineage_rows", Unit: "rows", Better: "lower", Layer: true, Gate: true},
	{Name: "exec.rows_per_ms", Unit: "rows/ms", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.vectorized_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.fallback_share", Unit: "ratio", Better: "lower", Layer: true, Gate: true},
	{Name: "exec.where_lowered_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.masked_agg_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.filter_short_circuit_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.residual_rows_per_query", Unit: "rows", Better: "lower", Layer: true, Gate: true},
	{Name: "exec.shards_per_query", Unit: "count", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.advance_incremental_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "exec.sort_carried_share", Unit: "ratio", Better: "higher", Layer: true, Gate: true},
	{Name: "server.query_resp_bytes", Unit: "B", Better: "lower", Layer: true, Gate: true},
	{Name: "server.zoom_resp_bytes", Unit: "B", Better: "lower", Layer: true, Gate: true},
	{Name: "server.append_req_bytes", Unit: "B", Better: "lower", Layer: true, Gate: true},
	{Name: "store.fs_write_bytes_per_row", Unit: "B/row", Better: "lower", Layer: true, Gate: true},
	{Name: "store.fs_writes_per_batch", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "store.fs_syncs_per_batch", Unit: "count", Better: "lower", Layer: true, Gate: true},
	{Name: "store.fs_read_bytes_per_query", Unit: "B", Better: "lower", Layer: true, Gate: true},
	{Name: "store.fs_reads_per_query", Unit: "count", Better: "lower", Layer: true, Gate: true},
}

// spanNames are the replay's spans. Each is reported as <name>_ms, its
// p50, by the workloads that make the call; the few every workload
// makes are listed above as gated.
var spanNames = []string{
	"sqlparse.parse", "exec.run", "exec.run_clean", "exec.advance", "exec.lineage",
	"core.examples", "core.debug", "core.debug_carried", "core.debug_reexpanded",
	"core.debug_preprocess", "core.debug_featurize", "core.debug_enumerate", "core.debug_predicates", "core.debug_rank",
	"influence.rank", "store.open", "store.append", "store.seal_append", "store.retain", "engine.append", "engine.retain",
}

var (
	endpoints = []string{"query", "suggest", "zoom", "debug", "clean", "append", "retention"}
	queryTags = []string{"grouped", "selective", "global", "orchain", "zonemap", "fecdaily", "residual", "distinct", "carried"}
)

// init completes defs with the metrics that come in families (per
// endpoint, per query shape, per span) and indexes them by name.
func init() {
	for _, tag := range queryTags {
		defs = append(defs,
			def{Name: "query_" + tag + "_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			def{Name: "query_" + tag + "_p90_ms", Unit: "ms", Better: "lower", Bound: 0.15})
	}
	defs = append(defs, layerDefs...)
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	names := append([]string{}, spanNames...)
	for _, tag := range queryTags[:len(queryTags)-1] {
		names = append(names, "exec.run_"+tag)
	}
	for _, op := range endpoints {
		names = append(names, "server."+op+"_handle", "server."+op+"_self")
		if op != "query" { // the query's is dbwipes.http_overhead_ms, gated
			names = append(names, "dbwipes.http_overhead_"+op)
		}
	}
	for _, name := range names {
		if !listed[name+"_ms"] {
			defs = append(defs, def{Name: name + "_ms", Unit: "ms", Better: "lower", Layer: true})
		}
	}
	for _, d := range defs {
		if _, dup := catalogue[d.Name]; dup {
			panic("bench: metric " + d.Name + " defined twice")
		}
		catalogue[d.Name] = d
	}
}
