// Package repro is a from-scratch Go reproduction of "A Demonstration of
// DBWipes: Clean as You Query" (Wu, Madden, Stonebraker — VLDB 2012): an
// end-to-end ranked provenance system for interactively detecting,
// understanding, and cleaning errors in aggregate query results.
//
// The system lives in internal/; each package's doc comment (`go doc
// ./internal/<pkg>`) describes it beside its code:
//
//   - internal/core — the ranked provenance pipeline (the paper's
//     contribution): Debug(query, S, D', ε) → ranked predicates,
//     plus the clean-and-requery loop.
//   - internal/engine, expr, sqlparse, agg, exec — the SQL substrate
//     with fine-grained provenance, built when first read.
//   - internal/influence, cleaner, subgroup, dtree, predicate, ranker —
//     the pipeline stages.
//   - internal/datasets — synthetic FEC and Intel Lab generators with
//     ground-truth anomaly labels.
//   - internal/baseline — full provenance / top-k influence / exhaustive
//     search comparison points.
//   - internal/server, viz — the web dashboard and plotting.
//
// Executables: cmd/dbwipes (web demo), cmd/dbwipes-cli (prints the
// paper's figures for a query), cmd/datagen. Runnable walkthroughs live
// in examples/.
//
// # One Debug configuration, judged by a quality table
//
// Debug has one configuration: the D' examples are cleaned by a naive
// Bayes classifier trained on the learning frame, CN2-SD grows one rule
// greedily and adds up to three one-selector alternatives, all ranked
// against the rule's region, one gini tree is trained on D', and the
// ranker scores, prunes, keeps one answer per row set of F, and sorts.
// The paper's Predicate Enumerator trains a classifier per candidate
// dataset; this trains one, on D', because subgroup's alternatives in
// place of the other two raised six quality scenarios (two-causes top-1
// 0.272 → 0.579) and lowered two best-of-3 cells by 0.001. Every
// parameter is a named constant beside its use. What it answers — top-1
// F1, best-of-top-3 F1, the rank of the first good answer, the first
// answer's length and how many of the first three answers select
// different rows, on the paper's walkthroughs, on polluted examples and
// on tables with a planted cause, next to the full provenance, top-k
// influence and exhaustive search baselines — is internal/core's
// TestQualityTable (`make quality` prints it), a tier-1 test with
// checked-in floors. core.Options keeps only what that table has a row
// for (two ablation switches, two known-bad settings) and
// DriftThreshold, which the differential generator sets to +Inf to drive
// the carried pass; a switch whose row stops moving a cell fails the
// test until it is deleted with its code.
//
// # Columnar scoring
//
// Interactive latency rests on scoring thousands of candidate
// predicates against the suspect lineage without re-touching boxed
// values. A Debug run therefore decodes everything it needs once, up
// front, into flat read-only state, and the whole scoring pipeline runs
// on bitmaps and float slices:
//
//   - internal/bitset — dense []uint64 bitmaps over source row ids;
//     lineage sets, predicate match sets and culpability sets intersect
//     and count at word granularity.
//   - internal/engine — one column reader (Table.NewColReader): a
//     cursor over the per-segment chunks of float64s + NULL words or
//     dictionary codes that every segment is stored as, read in place
//     by every downstream consumer, plus a per-version dictionary
//     handle (Table.Dict).
//   - internal/exec — a result's Provenance is one write-once value,
//     built on first read: each group's lineage, its lineage bitset
//     (Provenance.Bits) and each aggregate's ArgView (Provenance.ArgView,
//     the float the scan fed the state for each row: a bare column
//     copies out of its typed chunks, any other argument evaluates once
//     per source row), the last two filled once, on first read. An
//     advanced result's value extends its nearest built ancestor's by
//     the appended rows through the same fill.
//   - internal/predicate — Index caches a full-table match mask per
//     clause; a predicate match is the AND of its clause masks
//     (Index.MatchInto), bit-for-bit equal to MatchesRow.
//   - internal/agg — one contract, agg.Func, on float64s: every state
//     (DISTINCT sets included) folds a run of rows in one call
//     (AddFloats), merges and answers "the result without these values"
//     (ResultWithoutFloats), never mutating; agg.Add is the one boxed
//     entry. min and max keep their extremum and copy count, not the
//     values, and read the survivors (kept) only when every copy goes.
//   - internal/influence — Scorer ties these together: ε-without-a-set
//     is "intersect match mask with each group's lineage span, gather
//     floats, ask the state", zero steady-state allocations for the
//     algebraic aggregates. It is the only scorer: what it cannot score
//     (a DISTINCT set keyed by string values) Debug refuses by name. The
//     LOO pass leaves its influences in F order; only what a reader
//     returns (TopQuantileRows, TopRows) is sorted.
//   - internal/ranker — candidates score and prune in parallel through
//     par.Do; the prepared context is read-only shared state.
//   - internal/feature — NewSpace gathers the learning population's
//     columns once through the typed readers into a Frame (floats and
//     dictionary codes, addressed by population position) and profiles
//     them — all example cleaning reads; Space.Discretize, run by the
//     stage that trains, adds the quantile thresholds (order statistics
//     by selection, not a sort) and the int16 matrix of threshold
//     buckets / value slots. internal/subgroup builds every selector
//     mask of an attribute from one pass over that matrix and counts
//     its rules' WRAcc by popcount; internal/dtree trains its one
//     tree on D' from the matrix alone, so no learner touches the
//     table, and both refuse a profile-only space.
//
// Future backends plug in underneath this layer: the segmented engine
// below already demonstrates the contract — it produces the same views
// (argument columns, lineage bitsets, clause masks) as per-segment
// chunks, and the scoring algebra above composes by concatenating
// word-aligned chunks, OR-ing bitsets and merging aggregate states.
//
// # The query executor: one pipeline
//
// The same columnar substrate runs the query half of the loop. Every
// grouped statement takes one path through internal/exec — resolve →
// filter mask → fold-block scan → fold → materialize — and nothing
// chooses between, falls back to, or mirrors an alternative:
//
//   - One WHERE evaluator (exec/filter.go). The WHERE is a chain of one
//     or more AND conjuncts. A conjunct that is index-shaped — column
//     against constant, IS NULL, BETWEEN, IN, under AND/OR/NOT — lowers
//     onto predicate.Index clause masks as a Kleene (TRUE, FALSE)
//     bitmap pair, so NOT/NULL semantics survive; one function
//     (classify) decides which node lowers to what, and a leaf's masks
//     derive from that one description — LIKE on a string column
//     included: its verdict is
//     computed once per dictionary code (expr.LikeMatch, the
//     interpreter's own matcher) and fanned out by code, so the mask
//     extends with the dictionary as rows are appended. Any other
//     conjunct (arithmetic, function calls, LIKE over a computed value)
//     is residual: interpreted per row, only on its eligibility
//     mask — the rows with no source-earlier known-FALSE conjunct,
//     exactly the rows the scalar evaluator's AND short-circuit would
//     reach (FALSE short-circuits, NULL does not), so error presence is
//     preserved, not just values. A WHERE where nothing lowers is the
//     same walk with every conjunct residual; Plan.FilterFallback says
//     so ("filter: non-lowerable predicate shape"). That is its one
//     reason: a superseded snapshot lowers too, on masks built for its
//     own rows.
//   - One WHERE order: the root AND chain is walked in source order,
//     as RunReference evaluates it. A lowered conjunct ANDs its TRUE
//     mask into the running mask through a fused AND+popcount kernel
//     and builds its FALSE mask only when a residual follows it; the
//     rest of the chain is skipped, its masks never built, the moment
//     the running mask empties (with residuals pending: the moment
//     eligibility empties). No estimate, no statistics and no reorder:
//     an estimate would need the masks it is meant to spare, and an AND
//     of built masks costs the same in any order. OR roots and nested trees are a
//     single conjunct lowered through the plain combinators.
//     Plan.FilterConjuncts/FilterShortCircuited and
//     Plan.ResidualConjuncts/ResidualRows record the walk.
//   - One scan (exec/vector.go), block-at-a-time. A worker walks a fold
//     block in blocks — at most 1024 rows of one segment, the ctx polled
//     at least every 4096 — and turns a block's filter words into a
//     selection vector. Group keys are integers, not strings, one
//     slot vector per key per block: dictionary codes for string
//     columns, canonical float bits for numeric columns, and for numeric
//     computed keys (bucket(epoch(ts), w), arithmetic, the math1
//     functions) the output of a typed chunk kernel — expr.CompileFloat
//     lowers the expression to straight loops over the block's
//     []float64 + NULL words, tracking each node's static type only to
//     know where the interpreter computes in int64, and DECLINES a block
//     whose float evaluation it cannot prove equal (an int-typed value
//     at |v| ≥ 2^53; expr.FuzzKeyKernelParity). Everything else — a
//     string-valued key, a declined block — is the per-row evaluator
//     (rowEval: the interpreter over the cells of the columns the key
//     names), the single fallback arm, whose string results intern into
//     NaN-payload slots no number can occupy (Plan.KeyKernels counts the
//     keys planned as kernels). One key looks up through a dense code
//     table or a uint64 map, two or more through a map keyed by the
//     slots' bytes — any width. The block then walks runs, consecutive
//     selected rows with equal slots: one lookup, one row count, one
//     AddFloats per numeric argument per run (no lineage: a result's
//     first read runs these stages again for it). Time-ordered data
//     groups in long runs, and a block finds them without keying every
//     row when its one key is monotone — a numeric column, or a kernel
//     expr.CompileFloat marks Monotone (epoch, bucket by a literal width
//     above 0, and their compositions over one column; never negation,
//     sqrt or two columns) — and the key's column cells it selects are
//     non-NULL and non-decreasing (v >= prev, which a NaN fails). It keys
//     every 128th selected row and the last; the kernel must accept those
//     probes (the end cells have the largest magnitudes, so no cell
//     between is past ±2^53), and between two probes of one key every
//     row has that key: only the rows between probes that differ are
//     keyed. A monotone key over ascending cells puts equal keys next to
//     each other, so the runs are exactly the per-row path's and fold
//     order, FirstRow, lineage order and every bit stay. A block that
//     fails a check, or whose probes differ more than 4 times (many short
//     runs), is keyed row by row. Run, Advance and a result's first read
//     all scan through this one block step; Plan.OrderedBlocks counts the
//     blocks that took the path. A group's Key is boxed once, where the
//     fold first meets the group, on its FirstRow — a kernel key's by
//     the boxed evaluator, so it is the reference's
//     value, type included, never the kernel's float; materialize takes
//     a grouped statement's plain select items from it (they must BE
//     group keys — expr.Equal) and reads no source row. Nothing on this
//     path decodes a boxed chunk: out of core, a per-cell read
//     (engine.RowReader) pins one float or code chunk, boxes one cell.
//     Aggregate arguments fold from the block's chunk slices into the
//     states, column at a time (an evaluator error truncates the block,
//     so the first error is still the reference's: lowest row, key
//     before argument). The row space splits into fixed fold blocks of
//     16384 row ids (a segment, when smaller) that par.Do hands out
//     (an out-of-core segment's together, so its chunks pin once); each
//     folds its rows in row order into partial states, and the partials
//     Merge left in block order: the sequential scan's group order, row
//     counts and FirstRow, and float bits the table fixes, not the core
//     count. A result keeps its float sums' partial of its last,
//     incomplete block apart, so Advance resumes that block (other
//     Merges are exact): Run is Advance from the empty result. A global
//     aggregate is the zero-key block, one run a block, on the same fold.
//   - Who still boxes in production, and why the edge is there: argEval
//     — an aggregate argument that is neither a numeric column nor
//     count(DISTINCT)'s string column evaluates per row to a Value and
//     enters its state through agg.Add (a string has no float; a
//     computed number waits for a bench shape that shows it matters). rowEval is the one
//     per-row evaluator: the interpreter over a row buffer holding only
//     the cells of the columns the expression names
//     (expr.FuzzCompileParity pins that Eval reads no other). It runs
//     residual WHERE conjuncts, argEval arguments, string and declined
//     keys, projections and each new group's key — no benchmark
//     workload's WHERE reaches it.
//   - The oracle (exec.RunReference): the boxed row-at-a-time scan —
//     per-row WHERE interpretation, string group keys, boxed arguments
//     through agg.Add, folding by the same blocks. No production code
//     path reaches it. One differential generator in internal/exec runs
//     seeded statements — DISTINCT, 0–6 keys, string computed keys —
//     over NULL/NaN/±0-heavy and inexact floats, 64-row to default
//     segments, resident and out-of-core, through histories of appends,
//     retention and calls cancelled at every failpoint, and requires of
//     both identical rows, float bits (every NaN result is math.NaN()),
//     group order, lineage, argument views, FirstRow and errors, and
//     Vectorized with no Fallback at every step; an advance from empty
//     must equal Run bit for bit, and a first read must extend its
//     ancestor's views.
//     FuzzResidualFilterParity routes parsed predicates through it.
//
// /api/stats sums the plan counters (scan.segs_skipped, …,
// key_kernels) and each stage's time (stages.<endpoint>.<stage>); the
// Benchmark{ResidualFilter,MaskedAggregation} benchmarks fail when the
// thing they time stops engaging, not just when it slows, and
// BenchmarkSelectiveFilter times a five-mask chain whose empty clause
// comes last.
//
// # Incremental maintenance and streaming ingest
//
// The paper's motivating scenario is continuous monitoring: readings
// keep arriving and the analyst re-runs the aggregate query and Debug
// over the growing table. Every layer above is therefore maintained
// incrementally under appends instead of being rebuilt from row 0:
//
//   - internal/engine — storage is SEGMENTED (see the next section):
//     sealed fixed-size segments plus a growable tail. Table.AppendCols
//     is the only mutation, and every append takes its one shape, an
//     engine.Batch (per column NULL words plus float64s, exact int64s or
//     strings) — the generators, CSV load, query results and Select
//     build through it too. It writes the batch into the tail's chunks
//     a column at a time, copy-on-write: it returns a new table version
//     sharing every sealed segment by pointer and the tail arrays by
//     aliasing, so in-flight queries keep an immutable snapshot, never
//     observe a half-appended batch, and no append ever copies a whole
//     column; DB.AppendCols republishes the grown version atomically.
//     AppendBatch over boxed rows is a converter into the same path
//     (BatchOf). Rows leave a table in bulk the one way too:
//     Table.Batch(lo, hi) reads rows [lo, hi) through the readers a scan
//     uses into a Batch, which is what the store's WAL rewrite logs and
//     what a copy appends elsewhere. A published version's memory is
//     never written, with no exception, so the version is its own
//     snapshot and a reader writes no shared state: a ColReader walks the
//     typed chunks every segment, the tail included, is stored as —
//     dictionary codes are assigned at append, in first-appearance order
//     — with no per-version index to build or cache.
//   - internal/predicate — one Index per table family
//     (predicate.Shared, kept in Table.AuxLoadOrStore), and every mask
//     request names its table version (Index.Mask, Index.MatchInto). A
//     cached mask is one flat bitset, never written once handed out: a
//     newer version rebases the index (appends extend a copy,
//     retention re-slices whole words), an older same-base one gets its
//     own length's prefix, and one from before a retention the index
//     has seen gets a mask built for it alone. So a scan mid-append or
//     racing a retention pass never sees another version's rows. An
//     Index holds at most 128 masks and no statistics.
//   - internal/exec — two entries: Run(ctx, src, stmt) executes a
//     statement over the table it is handed (the caller resolves FROM,
//     engine.DB.Table), and AdvanceCtx(ctx, res, grown) re-executes one
//     over a grown table version by folding only the appended rows into
//     copies of the previous result's group states (Clone+Merge state
//     copy), then re-materializing HAVING/ORDER BY/LIMIT over the groups — a
//     full re-sort, which at the tens of groups a monitoring query has
//     costs less than carrying an order: O(batch + groups) per cycle
//     instead of an O(n) rescan. AdvanceCtx touches no provenance: the
//     advanced result records its nearest built ancestor's value, and
//     its first read runs one lineage pass over the rows appended since
//     and extends that value: row ids of the groups that grew, bitsets
//     and NULL words are copied, and each argument view's floats are
//     appended in place, past the length the ancestor publishes, by the
//     first advance to claim them (a sibling advance of the same
//     ancestor copies). So a following Debug skips the prefix, a
//     carried re-debug pays for the appended rows and not the table,
//     and a chain of unread advances costs one suffix pass. A result
//     may be advanced any number of times.
//   - internal/server — POST /api/append decodes its envelope with
//     encoding/json and scans the rows straight into a Batch (numbers
//     by strconv, integer literals exact for int and time columns), which
//     the store logs to its WAL and publishes through the copy-on-write
//     path; a repeated query on an unchanged statement advances the
//     session's cached result incrementally. Sessions hold a per-session
//     mutex across handler bodies and the session map is bounded (LRU
//     cap + idle TTL).
//
// Group-key equality is pinned to engine.Equal everywhere: Value.Key
// and the executor's canonical float slots both collapse -0.0 into
// +0.0 (and all NaNs into one key), so the pipeline and its oracle
// group identically.
//
// BenchmarkStreamingAppendQuery measures the append-then-requery cycle:
// per-batch cost is independent of total table size on the incremental
// path, against an O(table) full re-run baseline.
//
// # Incremental Debug (streaming explanation maintenance)
//
// The other half of the monitoring loop — the Debug call itself — is
// also maintained across append batches. core.DebugAdvance(prev, req)
// picks a previous Debug's analysis up on an advanced result instead of
// rebuilding the scoring state from row 0:
//
//   - internal/influence — NewScorer over the advanced result reads the
//     per-group lineage bitsets and the flat argument view its
//     provenance extended from its ancestor's, so only the F union is
//     rebuilt, a word OR per suspect group. RankAdvancedCtx ranks LOO influence through it
//     — or, when no suspect group's lineage grew (a stream mostly adds
//     groups), shares the previous pass's ranking as it stands: every
//     aggregate state, so ε and every δ, is unchanged.
//   - core.ExamplesWhereCtx — the user's examples are the suspect lineage
//     bitset ∧ the condition's WHERE mask (exec.FilterRows): a
//     comparison reads the family's shared clause mask, which extends
//     by the appended suffix, and so does a LIKE on a string column;
//     only arithmetic and function-call conjuncts evaluate rows, and
//     only lineage rows.
//   - internal/ranker — RankAllCarry returns a RankerState: every
//     ranked predicate with its frozen target set and score. A later
//     Rescore runs the same par.Do scoring/pruning/dedup mechanics
//     over the carried candidates against the advanced context and
//     reports the score drift. Both score through the family's one
//     clause-mask index, so rescoring a carried candidate decodes only
//     the appended rows into its masks.
//
// A DebugAdvance pass is one of two modes (DebugResult.Plan.Mode):
//
//   - carried — the same question (statement, metric, aggregate,
//     Options, suspect groups and examples) on a grown table within one
//     retention base, and the carried predicates, rescored exactly
//     against it, drift no further than Options.DriftThreshold: they
//     ARE the answer. The learners (subgroup discovery, tree induction)
//     do not run, and the feature space is only profiled, for cleaning
//     the user's examples. The contrast sample and the capped learning
//     population are picked a bitmap word at a time (a word with no
//     pick costs one popcount), so what such a pass still pays per
//     learning-population row is, with examples, the gather and the
//     classifier's one pass over the frame.
//   - full — everything else runs Debug from scratch, with
//     Plan.Fallback saying why: no carried state, a changed question or
//     Options, a moved retention base, an empty carried ranking, or
//     drift past the threshold (a previously-ranked predicate turning
//     vacuous counts as infinite drift). Plan.Drift keeps the drift that
//     sent a pass there.
//
// Debug and DebugAdvance share their stage functions (preprocess,
// featurize, clean, enumerate, rank), so the incremental path cannot
// drift from the full pipeline. One differential generator
// (internal/core/differential_test.go) holds every DebugAdvance pass of
// seeded append, retention, re-ask, stale-mask and cancel histories to
// an oracle over an independently executed result, bit for bit: a full
// pass to Debug, a carried pass to Debug's analysis plus its carried
// candidates rescored there, and the advanced scorer to
// influence.EpsWithoutRows.
//
// BenchmarkStreamingDebug measures the append + advance + re-Debug
// cycle against append + fresh run + fresh Debug: incremental cost
// stays roughly flat across base table sizes while the rebuild
// baseline grows with the table; its examples arm is the cycle as
// /api/debug runs it for a monitoring session.
//
// # Segmented storage and retention (bounded-memory streams)
//
// The storage spine is built from fixed-size row segments — 64Ki rows
// by default, any power of two >= 64 (engine.MinSegmentBits), chosen so
// a segment boundary is ALWAYS a bitset word boundary. A table version
// is an ordered list of sealed segments (immutable, exactly SegRows
// rows) plus a growable tail; appends (Table.AppendCols, the only
// mutation) only ever touch the tail, in a new version. Both
// have one representation — per column a typed chunk: float values +
// NULL words, dictionary codes, exact int64 cells only where a float64
// has rounded; at most 8 bytes a row — written a batch column at a time
// at append, so a seal hands the full tail over as it stands. A sealed segment has
// two holders: itself (sealed in this process) or a ChunkLoader's buffer
// pool (every segment store.Open recovers, the pool capped or not). Nothing is
// stored boxed: an engine.Value is what a boxed-row caller appends or
// the single cell it asks for (Table.Value, RowReader); rows leave in
// bulk as a Batch (Table.Batch). Column readers alias the chunks and the
// predicate index's mask chunks live per segment, so every derived
// structure shares the segment's lifetime, and a fold block never
// straddles a segment, so scan state aligns with chunk boundaries
// instead of re-partitioning flat arrays per call.
//
// Segments are also the unit of retention. engine.DB.Retain (durably,
// store.DB.RetainCtx) / Table.RetainTail drop whole head segments past
// a row-count or age-column horizon and republish the retained version,
// giving an unbounded append stream a bounded resident window
// (examples/sensor_stream runs the monitoring loop forever at a
// retained-segment plateau; Table.MemStats and the server's /api/stats
// report the footprint). Dropping k segments rebases every surviving
// row id down by k*SegRows — a multiple of 64 — and moves Base(). ONE
// RETENTION RULE governs carried state:
//
//   - the predicate index, keyed by clause over per-segment mask
//     chunks, outlives versions: it just drops its head chunks;
//   - a carried result, scorer or ranking is valid only at the base it
//     was computed at. exec.AdvanceCtx across a moved base re-runs the
//     statement over the retained window, recording why in
//     Plan.Fallback ("retention: ...") — the only thing that field ever
//     names — and core.DebugAdvance across one runs a full Debug with
//     the reason in its Plan.Fallback. Within one base both carry.
//
// Stale snapshots taken before a retention pass stay readable (their
// segments are alive until the last reader drops them) through the same
// readers, but the predicate index refuses their base, leaving every
// WHERE conjunct residual —
// correctness never depends on a superseded window. The differential harnesses drive append chains with batch
// sizes landing exactly on, one under and one over segment boundaries,
// interleaved with randomized retention, at the minimum segment size —
// segmented executor, Scorer and DebugAdvance results stay
// bit-identical to the reference scan at every step.
//
// BenchmarkSegmentedAppend shows flat per-batch append cost across
// base sizes; BenchmarkRetention shows the bounded retained footprint
// (retained_MB / retained_segs plateau) under an unbounded stream.
//
// # Request lifecycle: cancellation, deadlines, admission control
//
// Interactive debugging lives or dies on tail latency, so every
// long-running layer is cancellable and the server degrades gracefully
// under load instead of stalling. A context.Context threads from the
// HTTP request down through the whole stack, polled at bounded
// granularity (every fold block and 4096 rows of it, per candidate in the
// ranker's scoring, per group in the LOO influence pass, at every
// stage boundary of core.Debug/DebugAdvance, and before — never after —
// the store's WAL write acknowledges an append).
//
// The CANCELLATION CONTRACT is that cancellation never corrupts carried
// state: an operation interrupted at any checkpoint leaves the state it
// was fed (cached exec results, debug analyses, the published table
// version) either untouched or fully published, so an uncancelled retry
// is bit-identical to a from-scratch run. Concretely, exec.AdvanceCtx
// never writes its input result, so a retry on the same result is
// bit-identical; store.DB.AppendColsCtx checks the context only before
// the WAL write, so an acknowledged batch is never half-durable
// (cancel-before-publish-or-not-at-all);
// core.DebugAdvance leaves the previous analysis reusable; and
// ranker.Rescore leaves the carried ranking untouched on error.
//
// Each layer's harness pins the contract by enumerating failpoints, as
// internal/store pins durability. chaos.CancelAfter(n) is a context
// whose Err() trips Canceled on the nth poll, the cancellation twin of
// vfstest.MemFS.FailAt; chaos.CancelEach replays an operation cancelled
// at each failpoint: a cancelled attempt returns nothing, and its retry
// passes the caller's check. exec's generator so cancels a Run or
// AdvanceCtx and its first Provenance read (its TestMatrix* profiles),
// core's a DebugAdvance, and the store's TestMatrixStore its appends and
// retention. The server's session generator (internal/server,
// TestSessionDifferential and its profiles) plays seeded dashboard
// sessions — query, zoom, debug, clean, reset, appends, retention,
// restarts — with steps cancelled at a drawn poll or a read failed, on a
// system under test and an uncapped twin that gets only the completed
// steps: a completed step answers the twin's bytes, a cancelled one 499
// and publishes nothing, and every answer is held to exec.RunReference
// and core.Debug over a model of the rows. Beside it,
// TestMatrixDebugLoadFailure fails each read of a fresh and a carried
// Debug in turn. internal/chaos keeps what
// only concurrent clients reach: a deadline storm and a concurrent soak
// (every request classified exactly once, no goroutine leaks, bounded
// memory, oracle-identical re-queries; `make test-chaos`).
//
// On top, internal/server enforces per-request deadlines (class
// defaults via server.Limits, per-request `?timeout=` capped by
// MaxTimeout) and admission control: heavy operations (query, debug,
// clean, reset) pass a bounded semaphore with a bounded wait queue,
// and overload sheds with 429 + Retry-After rather than queuing
// without bound; a fail-stopped durable table sheds ingest with 503 +
// Retry-After while queries keep serving. Deadline expiry maps to 504,
// client disconnect to 499, and per-endpoint counters at /api/stats
// classify every request exactly once. Each request carries an
// obs.Record: every layer adds its stages' time (the vocabulary is
// internal/obs's), the response's Server-Timing header renders it, and
// /api/stats folds it into stages. Session locks honor the request
// context: a slow holder is a 504 for the next request, not a pile-up.
// The knobs surface as dbwipes flags (-query-timeout, -debug-timeout,
// -max-heavy, -max-queue); cmd/datagen's feeder honors the shed
// responses with jittered exponential backoff under a retry budget.
//
// Below admission, every intra-request fan-out runs through
// internal/par's Do: the caller and up to GOMAXPROCS-1 helpers share
// the items, and a helper's panic re-raises on the request's goroutine
// with the helper's stack, where engine.CatchSegmentLoad and
// withRecovery see it.
//
// The benchmarks in bench_test.go regenerate the data behaviour behind
// each figure of the paper; run them with
//
//	make bench    # go test -run='^$' -bench=. -benchmem ./...
package repro
