GO ?= go

.PHONY: all build test short quality test-race test-procs test-crash test-chaos test-memcap vet fmt-check check check-bench bench bench-hot bench-kernels profile-debug profile-append profile-scan fuzz-smoke cover lines examples surface mutants

all: build test

build:
	$(GO) build ./...

# Tier-1 verification: everything must build and pass.
test: build
	$(GO) test ./...

# Short mode skips the full-scale (2.3M row) generators.
short:
	$(GO) test -short ./...

# The quality table: what Debug's one configuration, each Options row and
# the baselines answer on every scenario, against ground truth, printed
# as markdown and as the Go rows the test checks against. It is an
# ordinary tier-1 test (TestQualityTable, so `test` and `short` already
# hold it to its checked-in floors); this target runs every variant on
# every scenario and shows the numbers.
quality:
	$(GO) test -count=1 -run 'TestQualityTable' -v ./internal/core

# Race-detector pass over the concurrent surfaces: par's helpers (the
# scan's fold blocks, F build and ranker scoring they run), the
# copy-on-write append/serve path, and the server's per-session state.
# The server's session generator (TestSessionDifferential and its
# profiles, each a name below) and the direct tests beside it (a damaged
# segment, and TestMatrixDebugLoadFailure's chunk-load failure at every
# read of a Debug) run again at one core and at four: the SUT, its twin
# and the model must agree whatever the helpers do.
# CI runs this as its own job.
SESSION_RUN = TestSession|TestAppendEndpointAndIncrementalRequery|TestDebugAdvanceAfterAppend|TestDebugSuspectRemapAcrossAppend|TestAppendQueryRetentionLoop|TestDebugAfterRetentionRefreshes|TestZoomAcrossRetention|TestLineageBuildLoadFailure|TestSegmentUnreadable500|TestMatrixDebugLoadFailure
test-race:
	$(GO) test -race -short ./...
	GOMAXPROCS=1 $(GO) test -race -short -count=1 -run '$(SESSION_RUN)' ./internal/server
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run '$(SESSION_RUN)' ./internal/server

# Answers do not follow the core count: the golden Debug rankings, exec's
# differential generator (TestDifferential, its *Parity profiles and its
# cancellation matrices TestMatrixRun, TestMatrixAdvance,
# TestMatrixProvenance, TestMatrixKeyKernels and TestMatrixOutOfCorePins,
# and its ordered profile TestOrderedRuns with TestOrderedBlocksFigure4:
# every step bit for bit against the reference, which folds by the same
# table-fixed blocks), the Debug carry's generator in internal/core (its
# profiles, each a name below) and the lineage tests (the row order a
# first read builds) at one core and at four. The scan's fold blocks are
# the table's, so both runs must pass against the one checked-in golden
# file.
PROCS_RUN = TestGoldenRankings|TestDifferential|Parity|TestLineage|TestDebugAdvance|TestDebugStaleVersion|TestDebugDeterminism|TestAdvanceScorerDifferential|TestRescore|TestMatrixDebugAdvance|TestMatrixRun|TestMatrixAdvance|TestMatrixProvenance|TestMatrixKeyKernels|TestMatrixOutOfCorePins|TestOrderedRuns|TestOrderedBlocksFigure4
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 -run '$(PROCS_RUN)' ./internal/core ./internal/exec
	GOMAXPROCS=4 $(GO) test -count=1 -run '$(PROCS_RUN)' ./internal/core ./internal/exec

# Durability fault suite: the crash-at-every-failpoint recovery matrix
# and its cancellation twin (TestMatrixStore: AppendCtx and RetainCtx
# cancelled at every failpoint), corruption/quarantine detection, and
# fail-stop behavior in internal/store, and the fault model they run on
# (internal/vfs/vfstest), under the race detector. GOMAXPROCS=1 pins the single-core schedule;
# GOMAXPROCS=4 lets recovered tables publish to genuinely concurrent
# readers.
test-crash:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/store/ ./internal/vfs/vfstest/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/store/ ./internal/vfs/vfstest/

# Request-lifecycle fault suite: what only concurrent clients of a whole
# server reach — the deadline storm (every request classified exactly
# once) and the concurrent chaos soak with MemFS faults — under the race
# detector, short mode (the full soak runs in the plain test suite). The
# cancel-at-every-failpoint matrices run with their layers: exec's under
# test-procs and test-race, the store's under test-crash; the chunk-load
# failure at every read of a Debug (TestMatrixDebugLoadFailure) runs in
# internal/server beside its session generator, under test-race.
# GOMAXPROCS=1 pins the single-core schedule; GOMAXPROCS=4 gives the
# storm and soak genuine parallelism.
test-chaos:
	GOMAXPROCS=1 $(GO) test -race -short -count=1 ./internal/chaos/
	GOMAXPROCS=4 $(GO) test -race -short -count=1 ./internal/chaos/

# Out-of-core suite under a hard memory cap: the store and exec tests
# (including the bigger-than-cache differential, bounded-heap checks and
# both layers' cancellation matrices) run with GOMEMLIMIT far below the decoded size of their
# fixtures. A regression to eager residency fails the heap-growth
# assertions — or stalls visibly in GC thrash under the limit. The
# uncapped-pool guard rides in the same package
# (TestResidentOpenHeapPerCell): a store opened with no cap keeps under a
# byte of heap a sealed cell after Open, and at most 12 bytes a cell once
# every column has been read — typed chunks, not boxed values — and so
# may a table grown by AppendBatch, tail included
# (TestAppendedTailHeapPerCell).
# The root allocation guards ride along: an out-of-core query may
# allocate at most twice what the resident one does.
test-memcap:
	GOMEMLIMIT=128MiB $(GO) test -count=1 ./internal/store/ ./internal/exec/
	GOMEMLIMIT=128MiB $(GO) test -count=1 -run 'AllocSmoke' .

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Short fuzz sessions over the parser round-trip, the interpreter's
# named-cells contract and key kernel parity targets, the aggregate contract, the
# segment-file section decoder, the WAL replay parser, the dict.log and
# manifest decoders, the quantile-threshold selection, the /api/append
# body decoder against the [][]any path it replaced, and every POST
# endpoint's body on a queried session (no 5xx, the session still
# answers) (one
# -fuzz target per invocation is a Go toolchain constraint). The
# checked-in corpora under testdata/fuzz replay on every plain `go test`;
# this additionally explores new inputs for a few seconds each.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseRoundTrip -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz=FuzzParseExprRoundTrip -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz=FuzzCompileParity -fuzztime=$(FUZZTIME) ./internal/expr
	$(GO) test -run='^$$' -fuzz=FuzzKeyKernelParity -fuzztime=$(FUZZTIME) ./internal/expr
	$(GO) test -run='^$$' -fuzz=FuzzAggContract -fuzztime=$(FUZZTIME) ./internal/agg
	$(GO) test -run='^$$' -fuzz=FuzzResidualFilterParity -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -run='^$$' -fuzz=FuzzSegmentSection -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzReplayWAL -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDictLog -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzQuantileThresholds -fuzztime=$(FUZZTIME) ./internal/feature
	$(GO) test -run='^$$' -fuzz=FuzzAppendBody -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzPostBodies -fuzztime=$(FUZZTIME) ./internal/server

# Coverage with a ratchet on the Debug pipeline: the scoring and
# ranking layers carry state across batches, so untested carry paths
# are where silent staleness bugs would live, and the learners
# (feature, dtree, subgroup, cleaner, core) decide what Debug answers;
# baseline is what the quality table measures them against. Thresholds
# sit a few points under current coverage (influence 91%, ranker 93%,
# feature 96%, dtree 93%, subgroup 96%, cleaner 95.5%, baseline 95.7%,
# core 92%) — raise them when coverage rises, never lower them. The
# storage and scan layers ride the same ratchet (engine 83%, exec 93%,
# store 92.5%): their untested lines would be fault, pin-release and
# carry paths. So do expr (91%) — the key kernels must agree with the
# interpreter on every arm — and agg (99.6%): every layer above adds,
# merges and removes through its one contract. predicate (82%) and
# bitset (85%) ride it too: every WHERE mask and every lineage set above
# is one of their bitmaps. par (100%) too: every fan-out above runs on
# its helpers and its panic re-raise. server (94.6%) and obs (100%) too:
# the request lifecycle's exactly-once accounting and every stage timing
# the running server reports. So does errmetric (92%): every ε Debug
# reports and every δ it ranks by is one of its terms.
cover:
	@for want in "./internal/influence:90" "./internal/ranker:88" "./internal/feature:92" \
			"./internal/dtree:90" "./internal/subgroup:92" "./internal/core:86" \
			"./internal/cleaner:92" "./internal/baseline:93" \
			"./internal/engine:77" "./internal/exec:88" "./internal/store:88" \
			"./internal/expr:79" "./internal/agg:95" \
			"./internal/predicate:70" "./internal/bitset:78" \
			"./internal/par:95" "./internal/server:90" "./internal/obs:95" \
			"./internal/errmetric:89"; do \
		pkg=$${want%%:*}; min=$${want##*:}; \
		pct=$$($(GO) test -short -coverprofile=cover.out $$pkg | grep -o 'coverage: [0-9.]*' | cut -d' ' -f2); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg"; exit 1; fi; \
		if awk -v p="$$pct" -v m="$$min" 'BEGIN{exit !(p < m)}'; then \
			echo "cover: $$pkg at $$pct% is under the $$min% ratchet"; exit 1; \
		fi; \
		echo "cover: $$pkg $$pct% (ratchet $$min%)"; \
	done

# The mutation ledger of one package (PKG, default exec): a fixed-seed
# sample of 100 mutants of its non-test files (flipped comparisons,
# swapped && and ||, integer literals moved by one, dropped calls and
# assignments, nil error returns), each run through `go test -overlay
# -short -failfast` of PKG and of the packages in TESTS, whose tests
# reach PKG too (the Debug carry's generator in internal/core kills
# influence's and ranker's mutants; ./internal/server's session
# generator and its per-read Debug matrix, which reach core's and
# store's, and ./internal/chaos reach exec, store and engine through the
# server)
# — no file in the tree changes — and
# printed as killed, survived, timeout or invalid with the first failing
# test. The same tree gives the same sample, so two commits' ledgers
# compare mutant by mutant. Not in tier-1 or `make check`: exec takes
# about ten minutes on two cores.
PKG ?= ./internal/exec
TESTS ?=
mutants:
	$(GO) run ./internal/mutants $(PKG) $(TESTS)

# Non-test and test Go lines per package (plain `wc -l`), bench/ — its own
# module — as one row, then the total: the table every PR reports in
# CHANGES.md, before and after.
lines:
	@printf '%-26s %8s %8s\n' package non-test test; nt=0; tt=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./...) $(CURDIR)/bench; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
		t=$$(ls $$d/*.go | grep _test.go | xargs -r cat | wc -l); \
		nt=$$((nt+n)); tt=$$((tt+t)); \
		printf '%-26s %8d %8d\n' "$$(realpath --relative-to=$(CURDIR) $$d)" $$n $$t; \
	done; printf '%-26s %8d %8d\n' total $$nt $$tt

# Which production code no real surface runs. Every binary is built with
# -cover and writes its counters to one directory: the four bench
# workloads (the harness builds cmd/dbwipes with the inherited GOFLAGS,
# and each server writes its counters when SIGTERM stops it), the six
# examples, the FEC walkthrough through dbwipes-cli, and one run of each
# kept surface those miss:
#   - datagen writing CSV (with append batches), a durable store (FEC,
#     one sealed segment) and a -fixture-bytes store;
#   - dbwipes-cli over the CSV (a median/var query);
#   - dbwipes recovering the store and loading the CSV (-csv), serving
#     the dashboard's GET /, /api/tables and /api/metrics, a query whose
#     WHERE the scan evaluates per row (NOT, unary minus, IN, BETWEEN,
#     IS NULL, OR, computed arguments), debugs under the diff, notequal
#     and zscore metrics, datagen -post batches and the carried
#     re-queries, a LIKE / IS NULL / count(DISTINCT s) query grouped by
#     a string over the recovered segment, a projection, retention by
#     time and by rows over the recovered segment (session p keeps the
#     version from before it, so no retired handle closes at GC's
#     whim), and /api/reset.
# testdata/surface.awk then rewrites testdata/surface.txt: one tagged
# line per function outside bench/ that ran 0.0%. The target fails when
# that changes the file (a zero-hit function with no line is
# "untagged"; a line whose function now runs goes). TestSurfaceLedger
# holds the tags. Not part of tier-1 or `make check`: it takes about a
# minute.
SURFACE_ADDR ?= 127.0.0.1:18239
SURFACE_SQL = SELECT moteid, max(temperature) AS mx, median(temperature * 2) AS med, \
	count(DISTINCT epoch) AS n, count(humidity) AS c FROM readings \
	WHERE humidity BETWEEN 0 AND 100 AND NOT (light * 1 < 10) AND -voltage < 0 AND 0 < voltage \
	AND moteid * 1 IN (1, 2, 3, 4, 5, 6) AND (light * 1 IS NULL OR temperature * 1 BETWEEN -50 AND 150) \
	GROUP BY moteid ORDER BY moteid
# The bodies are single-quoted in the shell: SQ is a single quote there.
SQ := '"'"'
SURFACE_FEC_SQL = SELECT memo, sum(amount) AS total, count(DISTINCT state) AS states FROM donations \
	WHERE (memo LIKE $(SQ)%SPOUSE%$(SQ) OR memo IS NULL) AND candidate = $(SQ)McCain$(SQ) \
	AND lower(memo) LIKE $(SQ)%spouse%$(SQ) GROUP BY memo
SURFACE_ROWS_SQL = SELECT substr(memo, 1, 12) AS m, amount, date FROM donations WHERE amount < -2000
surface:
	@dir=$$(mktemp -d); trap '[ -z "$$pid" ] || { kill $$pid; wait $$pid; } 2>/dev/null; rm -rf $$dir' EXIT; \
	mkdir $$dir/cov; export GOCOVERDIR=$$dir/cov; set -e; \
	echo "surface: bench workloads"; \
	GOFLAGS=-cover $(GO) run -C bench . -workload all -seed 1 -seconds 2 > $$dir/bench.log 2>&1 || \
		{ tail -20 $$dir/bench.log; exit 1; }; \
	echo "surface: examples"; \
	for d in examples/*/; do $(GO) run -cover ./$$d > /dev/null; done; \
	echo "surface: dbwipes-cli, datagen, dashboard"; \
	$(GO) build -cover -o $$dir/ ./cmd/...; \
	$$dir/dbwipes-cli -dataset fec \
		-sql "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' GROUP BY day ORDER BY day" \
		-suspect "total < 0" -metric "toolow(c=0)" -examples "amount < 0" -clean 0 > /dev/null; \
	$$dir/datagen -dataset intel -rows 50000 -batches 1 -batch-rows 500 -out $$dir/readings.csv > /dev/null; \
	$$dir/datagen -dataset fec -rows 70000 -batches 1 -batch-rows 500 -data $$dir/store -table donations > /dev/null; \
	$$dir/datagen -dataset intel -fixture-bytes 200000 -data $$dir/fixture > /dev/null; \
	$$dir/dbwipes-cli -csv $$dir/readings.csv -table readings -noplot \
		-sql "SELECT -moteid AS m, median(temperature) AS med, var(humidity) AS v FROM readings GROUP BY -moteid" > /dev/null; \
	$$dir/dbwipes -addr $(SURFACE_ADDR) -intel-rows 0 -fec-rows 0 -data $$dir/store \
		-csv readings=$$dir/readings.csv > $$dir/server.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do curl -sf http://$(SURFACE_ADDR)/api/tables > /dev/null && break; sleep 0.1; done; \
	get() { curl -sSf -o /dev/null http://$(SURFACE_ADDR)$$1; }; \
	post() { curl -sS --fail-with-body -o $$dir/resp -H 'Content-Type: application/json' -d "$$2" http://$(SURFACE_ADDR)$$1 || \
		{ echo "surface: POST $$1: $$(cat $$dir/resp)"; return 1; }; }; \
	get /; get /api/tables; get /api/metrics; \
	post /api/query '{"session":"s","sql":"$(SURFACE_SQL)"}'; \
	post /api/debug '{"session":"s","suspect":[0,1,2],"aggItem":1,"metric":"diff","metricParams":{"c":60}}'; \
	post /api/debug '{"session":"s","suspect":[0,1,2],"aggItem":2,"metric":"notequal","metricParams":{"c":120}}'; \
	post /api/debug '{"session":"s","suspect":[0,1,2],"aggItem":3,"metric":"zscore","metricParams":{"mean":60,"std":5,"k":1}}'; \
	$$dir/datagen -dataset intel -rows 50000 -batches 2 -batch-rows 500 \
		-post http://$(SURFACE_ADDR)/api/append -table readings > /dev/null; \
	post /api/query '{"session":"s","sql":"$(SURFACE_SQL)"}'; \
	post /api/query '{"session":"d","sql":"$(SURFACE_FEC_SQL)"}'; \
	post /api/debug '{"session":"d","suspect":[0],"aggItem":1,"metric":"toolow","metricParams":{"c":0}}'; \
	$$dir/datagen -dataset fec -rows 70500 -batches 1 -batch-rows 500 \
		-post http://$(SURFACE_ADDR)/api/append -table donations > /dev/null; \
	post /api/query '{"session":"d","sql":"$(SURFACE_FEC_SQL)"}'; \
	post /api/query '{"session":"p","sql":"$(SURFACE_ROWS_SQL)"}'; \
	post /api/retention '{"table":"donations","time_col":"date","cutoff":0}'; \
	post /api/retention '{"table":"donations","max_rows":1000}'; \
	post /api/query '{"session":"d","sql":"$(SURFACE_FEC_SQL)"}'; \
	post /api/reset '{"session":"s"}'; \
	kill -TERM $$pid; wait $$pid; pid=; \
	$(GO) tool covdata func -i $$dir/cov | awk -f testdata/surface.awk testdata/surface.txt - > $$dir/surface.txt; \
	cp testdata/surface.txt $$dir/old.txt; cp $$dir/surface.txt testdata/surface.txt; \
	echo "surface: $$(grep -vc '^#\|^$$' testdata/surface.txt) functions with zero surface hits"; \
	diff -u $$dir/old.txt testdata/surface.txt || \
		{ echo "surface: testdata/surface.txt changed: tag every untagged line, commit the file"; exit 1; }

# bench/ is its own module, so `go build ./...` and `go test ./...` at
# the root never compile it: an API slip in a package it imports would
# otherwise surface only when the benchmark driver fails.
check-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Every example under examples/ runs end to end and exits 0. They are
# the documented entry points and build their tables through the same
# append paths as everything else, and no test executes them.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# The CI gate: build, vet, formatting, the short test suite, the
# benchmark module, the examples, a fuzz smoke pass, the core-count
# check, and the durability and request-lifecycle fault suites.
check: build vet fmt-check short check-bench examples fuzz-smoke test-procs test-crash test-chaos test-memcap

# Full benchmark sweep with allocation counts.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# The hardware-bound scan kernels: unrolled bitset word loops, each
# aggregate's AddFloats over one block, the end-to-end residual and
# masked filter benchmarks that ride on them, and the grouped scan's
# ordered path: the Figure 4 window query, which takes it in every block,
# beside the two scan_mix arms whose blocks fall back.
bench-kernels:
	$(GO) test -run='^$$' -bench='BenchmarkIter|BenchmarkAndCountWith' -benchmem ./internal/bitset
	$(GO) test -run='^$$' -bench='BenchmarkAddFloats' -benchmem ./internal/agg
	$(GO) test -run='^$$' -bench='BenchmarkSelectiveFilter|BenchmarkResidualFilter|BenchmarkMaskedAggregation|BenchmarkFigure4WindowQuery$$' -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkScanMix/grouped' -benchmem ./internal/exec

# Where one full Debug spends its CPU: BenchmarkFigure6RankedPredicates
# (100k Intel rows, two CPUs) under the CPU profiler, written to a
# temporary directory, then the cumulative table of the program's own
# functions — the stage-by-stage profile CHANGES.md records. A second
# table does the same for the monitoring loop's carried re-debug
# (BenchmarkStreamingDebug/examples/base=200000: append, advance,
# examples, DebugAdvance), whose derived provenance read and
# preprocess should cost the appended rows, not the table.
profile-debug:
	@dir=$$(mktemp -d); \
	$(GO) test -run='^$$' -bench='BenchmarkFigure6RankedPredicates$$' -benchmem -cpu 2 -count 3 \
		-o $$dir/repro.test -cpuprofile $$dir/cpu.prof . && \
	$(GO) tool pprof -top -cum $$dir/repro.test $$dir/cpu.prof 2>/dev/null | grep -E 'flat%|Total|repro' | head -50; \
	echo "profile: $$dir/cpu.prof"; \
	$(GO) test -run='^$$' -bench='BenchmarkStreamingDebug/examples/base=200000$$' -benchmem -cpu 2 -count 3 \
		-o $$dir/repro.test -cpuprofile $$dir/carried.prof . && \
	$(GO) tool pprof -top -cum $$dir/repro.test $$dir/carried.prof 2>/dev/null | grep -E 'flat%|Total|repro' | head -50; \
	echo "profile: $$dir/carried.prof"

# Where one durable 1,000-row append spends its CPU: BenchmarkAppendBody
# (an Intel body through Handler() into a store on vfstest.MemFS) under
# the CPU profiler, the twin of profile-debug. Envelope decode, the body
# scan, the WAL record and the chunk append should lead; vfstest.MemFS's
# Sync copies the whole log, which a real disk does not.
profile-append:
	@dir=$$(mktemp -d); \
	$(GO) test -run='^$$' -bench='BenchmarkAppendBody$$' -benchmem -count 3 \
		-o $$dir/server.test -cpuprofile $$dir/cpu.prof ./internal/server && \
	$(GO) tool pprof -top -cum $$dir/server.test $$dir/cpu.prof 2>/dev/null | grep -E 'flat%|Total|repro' | head -40; \
	echo "profile: $$dir/cpu.prof"

# Where a scan spends its CPU: BenchmarkScanMix (the benchmark's scan_mix
# grouped and global statements over 400k Intel rows, two CPUs) under the
# CPU profiler, the twin of profile-debug. The key kernel and the argument
# folds (AddFloats) should lead — the scan records no lineage, so a
# slices.Grow of row ids means it does again; a map assign under min/max
# or one interface call per row means a fold went per value again. Its
# outofcore case runs both statements from a cold pool a third of the
# table's size: decodeSection and the clause-mask builds show the fault
# path there.
profile-scan:
	@dir=$$(mktemp -d); \
	$(GO) test -run='^$$' -bench='BenchmarkScanMix' -benchmem -cpu 2 -count 3 \
		-o $$dir/exec.test -cpuprofile $$dir/cpu.prof ./internal/exec && \
	$(GO) tool pprof -top -cum $$dir/exec.test $$dir/cpu.prof 2>/dev/null | grep -E 'flat%|Total|repro' | head -40; \
	echo "profile: $$dir/cpu.prof"

# Just the scoring hot path: the paper's interactivity claim lives here —
# one Debug, and the monitoring loop's carried re-Debug with user
# examples (the path bench/'s stream_monitor measures end to end).
bench-hot:
	$(GO) test -run='^$$' -bench='BenchmarkInfluenceLOO|BenchmarkFigure6RankedPredicates|BenchmarkStreamingDebug/examples/base=100000' -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkRank|BenchmarkEpsWithout' -benchmem ./internal/influence
	$(GO) test -run='^$$' -bench='BenchmarkScorePredicate|BenchmarkRankAll' -benchmem ./internal/ranker
	$(GO) test -run='^$$' -bench='BenchmarkMatching' -benchmem ./internal/predicate
