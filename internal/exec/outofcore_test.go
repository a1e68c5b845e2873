package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/enginetest"
	"repro/internal/store"
)

// End-to-end out-of-core query tests: an in-memory copy of the same
// on-disk table is the oracle for the faultable, buffer-pooled reopen. A deliberately tiny pool forces constant eviction, so every
// statement exercises fault → pin → release across fold blocks,
// and the parity requirement is the same bit-exact one the pipeline
// already owes the reference scan.

func oocOpts(fs store.FS, cacheBytes int64) store.Options {
	return store.Options{
		SyncEvery:        1,
		MaxResidentBytes: cacheBytes,
		Logf:             func(string, ...any) {},
		FS:               fs,
	}
}

// oocBatch draws rows with the parityTable distribution (NULLs, NaNs,
// signed zeros, exactly-representable floats) as boxed batches for
// store.Append.
func oocBatch(rng *rand.Rand, nrows int) [][]engine.Value {
	strs := []string{"a", "b", "c", "", "xy"}
	rows := make([][]engine.Value, nrows)
	for r := range rows {
		row := make([]engine.Value, 5)
		row[0] = engine.NewInt(int64(rng.Intn(11) - 5))
		if rng.Float64() < 0.15 {
			row[0] = engine.Null
		}
		row[1] = engine.NewInt(int64(rng.Intn(4)))
		switch {
		case rng.Float64() < 0.12:
			row[2] = engine.Null
		case rng.Float64() < 0.1:
			row[2] = engine.NewFloat(math.NaN())
		case rng.Float64() < 0.08:
			row[2] = engine.NewFloat(math.Copysign(0, -1))
		default:
			row[2] = engine.NewFloat(float64(rng.Intn(64)-32) * 0.25)
		}
		if rng.Float64() < 0.15 {
			row[3] = engine.Null
		} else {
			row[3] = engine.NewString(strs[rng.Intn(len(strs))])
		}
		if rng.Float64() < 0.1 {
			row[4] = engine.Null
		} else {
			row[4] = engine.NewTimeUnix(int64(rng.Intn(7200)))
		}
		rows[r] = row
	}
	return rows
}

// buildOOCTable writes nbatch random batches to table "p" on fs and
// closes the store, leaving sealed v2 segment files.
func buildOOCTable(t *testing.T, fs store.FS, rng *rand.Rand, nbatch int) {
	t.Helper()
	st, err := store.Open("d", oocOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	schema := engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "j", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "s", Type: engine.TString},
		{Name: "t", Type: engine.TTime},
	}
	if err := st.CreateTable("p", schema, engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nbatch; i++ {
		if _, err := st.Append("p", oocBatch(rng, 40+rng.Intn(60))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopen opens the store over fs with the given pool size and returns
// the recovered table, every sealed segment faultable (cacheBytes == 0:
// an uncapped pool).
func reopen(t *testing.T, fs store.FS, cacheBytes int64) (*store.DB, *engine.Table) {
	t.Helper()
	st, err := store.Open("d", oocOpts(fs, cacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	return st, tbl
}

// residentReopen reopens the store on fs uncapped, copies table p into
// an in-memory table of the same name, schema and segment size, and
// closes the store: the oracle, whose segments hold their chunks and
// read no file, for a store whose every recovered segment is faultable.
func residentReopen(t *testing.T, fs store.FS) *engine.Table {
	t.Helper()
	st, tbl := reopen(t, fs, 0)
	defer st.Close()
	cp, err := engine.NewTableSeg(tbl.Name(), tbl.Schema(), tbl.SegmentBits())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, tbl.NumRows())
	for r := range rows {
		rows[r] = tbl.Row(r)
	}
	if cp, err = cp.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestOutOfCoreQueryParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := store.NewMemFS()
		buildOOCTable(t, fs, rng, 6+rng.Intn(6))

		oracle := residentReopen(t, fs)
		// 4 KiB: a fraction of one decoded segment column set, so every
		// scan faults and evicts continuously.
		lazySt, lazy := reopen(t, fs, 4096)

		for iter := 0; iter < 40; iter++ {
			stmt, _ := randStmt(rng)
			sql := stmt.String()

			ref, refErr := runRef(oracle, stmt)
			label := fmt.Sprintf("seed %d iter %d lazy [%s]", seed, iter, sql)
			res, err := RunOn(lazy, stmt)
			if (refErr != nil) != (err != nil) {
				t.Fatalf("%s: error disagreement\nref: %v\nlazy: %v", label, refErr, err)
			}
			if refErr == nil {
				tablesEqual(t, label, ref.Table, res.Table)
				groupsEqual(t, label, ref, res)
				assertPipeline(t, label, res)
			}
			if n := lazySt.PoolPinned(); n != 0 {
				t.Fatalf("seed %d iter %d: %d chunks still pinned after query [%s]", seed, iter, n, sql)
			}
		}

		stats := lazySt.Stats()
		if stats.Pool == nil {
			t.Fatal("out-of-core store reports no pool stats")
		}
		if stats.Pool.Misses == 0 {
			t.Fatalf("tiny pool served every chunk without a fault: %+v", stats.Pool)
		}
		if err := lazySt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutOfCoreZoneSkip builds a table whose int column is constant per
// segment-sized batch, so zone maps give disjoint [min, max] ranges per
// sealed segment, then checks that a selective WHERE is answered with
// most segments skipped — and still bit-identically to the resident
// oracle.
func TestOutOfCoreZoneSkip(t *testing.T) {
	fs := store.NewMemFS()
	st, err := store.Open("d", oocOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	schema := engine.Schema{
		{Name: "i", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
		{Name: "s", Type: engine.TString},
	}
	if err := st.CreateTable("p", schema, engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	strs := []string{"a", "b", "c"}
	const nseg = 12
	segRows := 1 << engine.MinSegmentBits
	for k := 0; k < nseg; k++ {
		rows := make([][]engine.Value, segRows)
		for r := range rows {
			rows[r] = []engine.Value{
				engine.NewInt(int64(k * 1000)),
				engine.NewFloat(float64(rng.Intn(64)) * 0.25),
				engine.NewString(strs[rng.Intn(len(strs))]),
			}
		}
		if _, err := st.Append("p", rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := residentReopen(t, fs)
	lazySt, lazy := reopen(t, fs, 1<<20)
	defer lazySt.Close()

	// One segment's worth of matches: every other sealed segment's zone
	// range excludes 5000, so pruning must skip them without faulting.
	stmt := mustParse(t, "SELECT s, sum(f) AS total, count(*) AS n FROM p WHERE i = 5000 GROUP BY s")
	ref, err := runRef(oracle, stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(lazy, stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "zone skip", ref.Table, res.Table)
	groupsEqual(t, "zone skip", ref, res)
	if !res.Plan.Vectorized {
		t.Fatalf("zone-skip statement fell back: %+v", res.Plan)
	}
	// 12 appended segments: the last may stay as an unsealed tail, all
	// earlier ones are sealed, faultable, and (except segment 5) pruned.
	if res.Plan.SegsSkipped < nseg-2 {
		t.Fatalf("expected at least %d skipped segments, got %+v", nseg-2, res.Plan)
	}
	if res.Plan.ChunksFaulted == 0 {
		t.Fatalf("matching segment was never faulted: %+v", res.Plan)
	}
	if got := float64(res.Plan.SegsSkipped) / float64(nseg); got <= 0.5 {
		t.Fatalf("skip rate %.2f not > 0.5: %+v", got, res.Plan)
	}
	if n := lazySt.PoolPinned(); n != 0 {
		t.Fatalf("%d chunks still pinned after query", n)
	}

	// A predicate no segment can satisfy: everything skips, nothing
	// faults.
	none := mustParse(t, "SELECT s, count(*) AS n FROM p WHERE i = 123 GROUP BY s")
	resNone, err := RunOn(lazy, none)
	if err != nil {
		t.Fatal(err)
	}
	if len(resNone.Groups) != 0 {
		t.Fatalf("impossible predicate matched %d groups", len(resNone.Groups))
	}
	if resNone.Plan.ChunksFaulted != 0 {
		t.Fatalf("fully-pruned query still faulted chunks: %+v", resNone.Plan)
	}
	if resNone.Plan.SegsSkipped < nseg-1 {
		t.Fatalf("expected at least %d skipped segments, got %+v", nseg-1, resNone.Plan)
	}
}

// TestOutOfCoreZoneEdgeValues pins zone-map pruning on the float edge
// cases the verdict logic must treat exactly like engine.Compare:
// signed zeros (one value — a segment holding only -0.0 must never be
// skipped by f >= 0), NaN (compares equal to everything, so it matches
// every cmp==0 op and no strict op), all-NaN segments (no finite
// range), and NULLs. Each segment-sized batch holds one edge
// population; a battery of comparison predicates must come back
// bit-identical to the resident boxed oracle, with pruning still
// engaging where it provably can.
func TestOutOfCoreZoneEdgeValues(t *testing.T) {
	fs := store.NewMemFS()
	st, err := store.Open("d", oocOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	schema := engine.Schema{
		{Name: "g", Type: engine.TInt},
		{Name: "f", Type: engine.TFloat},
	}
	if err := st.CreateTable("p", schema, engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	segRows := 1 << engine.MinSegmentBits
	segVal := func(k, r int) engine.Value {
		switch k {
		case 0:
			return engine.NewFloat(math.Copysign(0, -1)) // only -0.0
		case 1:
			return engine.NewFloat(0) // only +0.0
		case 2:
			return engine.NewFloat(math.NaN()) // all NaN, no finite range
		case 3:
			return engine.NewFloat(100 + float64(r)*0.25) // far from zero
		default: // mixed NULL / NaN / -0.0 / 1.0
			switch r % 4 {
			case 0:
				return engine.Null
			case 1:
				return engine.NewFloat(math.NaN())
			case 2:
				return engine.NewFloat(math.Copysign(0, -1))
			default:
				return engine.NewFloat(1)
			}
		}
	}
	for k := 0; k < 5; k++ {
		rows := make([][]engine.Value, segRows)
		for r := range rows {
			rows[r] = []engine.Value{engine.NewInt(int64(k)), segVal(k, r)}
		}
		if _, err := st.Append("p", rows); err != nil {
			t.Fatal(err)
		}
	}
	// Unsealed tail so all five edge segments above are sealed+faultable.
	tail := make([][]engine.Value, 10)
	for r := range tail {
		tail[r] = []engine.Value{engine.NewInt(9), engine.NewFloat(0.5)}
	}
	if _, err := st.Append("p", tail); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := residentReopen(t, fs)
	lazySt, lazy := reopen(t, fs, 4096)
	defer lazySt.Close()

	queries := []string{
		"SELECT g, count(*) AS n FROM p WHERE f >= 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f = 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f <= 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f < 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f > 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f = 100 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f != 0 GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f IS NULL GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f IS NOT NULL GROUP BY g",
		"SELECT g, count(*) AS n FROM p WHERE f BETWEEN -1 AND 1 GROUP BY g",
	}
	for _, sql := range queries {
		stmt := mustParse(t, sql)
		ref, err := runRef(oracle, stmt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOn(lazy, stmt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("[%s]", sql)
		tablesEqual(t, label, ref.Table, res.Table)
		groupsEqual(t, label, ref, res)
		if n := lazySt.PoolPinned(); n != 0 {
			t.Fatalf("%d chunks still pinned after [%s]", n, sql)
		}
	}

	// f >= 0 matches the -0.0 segment (64), the +0.0 segment (64), the
	// all-NaN segment (NaN compares equal to everything: 64), the far
	// segment (64), the mixed segment's NaN/-0.0/1.0 rows (48), and the
	// tail (10). The -0.0-only segment contributing all 64 is the
	// regression this test exists for.
	res, err := RunOn(lazy, mustParse(t, "SELECT count(*) AS n FROM p WHERE f >= 0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Row(0)[0].Float(); got != 4*64+48+10 {
		t.Fatalf("f >= 0 matched %v rows, want %d", got, 4*64+48+10)
	}

	// f < 0 is provably empty in every segment: the zero segments' range
	// is [0,0] (seal canonicalizes -0.0), NaN never satisfies a strict
	// op, and the mixed segment's finite range starts at 0 — all five
	// sealed segments skip without faulting.
	resLt, err := RunOn(lazy, mustParse(t, "SELECT count(*) AS n FROM p WHERE f < 0 GROUP BY g"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resLt.Groups) != 0 {
		t.Fatalf("f < 0 matched %d groups", len(resLt.Groups))
	}
	if resLt.Plan.SegsSkipped < 5 {
		t.Fatalf("f < 0 should zone-skip all 5 sealed segments: %+v", resLt.Plan)
	}
	if resLt.Plan.ChunksFaulted != 0 {
		t.Fatalf("fully-pruned f < 0 still faulted: %+v", resLt.Plan)
	}
}

// corruptSegments flips one bit in the column sections of every sealed
// segment file on fs, so any later fault of any of them fails its CRC.
func corruptSegments(t *testing.T, fs *store.MemFS) {
	t.Helper()
	n := 0
	for _, f := range fs.Files() {
		if strings.HasSuffix(f, ".seg") {
			size, err := fs.FileSize(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.FlipBit(f, size/2, 5); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no segment file to corrupt")
	}
}

// TestProvenanceRetriesAfterLoadFailure: an advance touches no
// provenance, so a chunk fault under the advanced result's first read —
// here the argument view it extends from its ancestor's, injected on the
// suffix segment's pins — fails that read alone: it publishes nothing,
// the ancestor stays recorded, and once the fault clears the next read
// builds the reference's value. A HAVING that only errors on the
// advanced aggregates fails every attempt alike, leaving the result
// advanceable.
func TestProvenanceRetriesAfterLoadFailure(t *testing.T) {
	src := tinySegTable(rand.New(rand.NewSource(13)), 3*64+8) // three sealed segments and a tail
	fCol := src.Schema().ColIndex("f")
	twin, loader := enginetest.New(src)
	twin = loader.Attach(loader.Attach(twin))
	stmt := mustParse(t, "SELECT s, sum(f) AS v, count(*) AS n FROM p GROUP BY s")
	res, err := RunOn(twin, stmt)
	if err != nil {
		t.Fatal(err)
	}
	v := mustProv(res)
	if _, err := v.ArgView(0); err != nil { // the view the first read will extend
		t.Fatal(err)
	}
	grown := loader.Attach(twin)
	adv, err := Advance(res, grown)
	if err != nil {
		t.Fatal(err)
	}
	loader.Fail = func(seg, col int) error {
		if seg == 2 && col == fCol {
			return errors.New("injected")
		}
		return nil
	}
	for attempt := 0; attempt < 2; attempt++ {
		out, err := adv.Provenance(t.Context())
		var sle *engine.SegmentLoadError
		if !errors.As(err, &sle) || out != nil || adv.prov.Load() != nil || adv.anc.Load() != v {
			t.Fatalf("attempt %d: want the injected chunk-load failure and nothing published, got %v, %v", attempt, out, err)
		}
		if _, _, _, pinned := loader.Counts(); pinned != 0 {
			t.Fatalf("attempt %d: %d chunks still pinned", attempt, pinned)
		}
	}
	loader.Fail = nil
	sealedRows := make([]int, grown.NumRows())
	for r := range sealedRows {
		sealedRows[r] = r
	}
	ref, err := runRef(src.Select(sealedRows), stmt)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, "retry", ref.Table, adv.Table)
	groupsEqual(t, "retry", ref, adv)
	provEqual(t, "retry", ref, adv)
	if !adv.Plan.Incremental {
		t.Fatalf("advance did not carry: %+v", adv.Plan)
	}

	// HAVING over an aggregate that is NULL on the carried rows (i is
	// NULL there) and an int once the batch lands: int > string errors.
	tbl, err := engine.NewTableSeg("p", src.Schema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i engine.Value) [][]engine.Value {
		return [][]engine.Value{{i, engine.NewInt(1), engine.NewFloat(1), engine.NewString("a"), engine.Null}}
	}
	if tbl, err = tbl.AppendBatch(row(engine.Null)); err != nil {
		t.Fatal(err)
	}
	having := mustParse(t, "SELECT s, sum(i) AS v FROM p GROUP BY s HAVING v > 'x'")
	if res, err = RunOn(tbl, having); err != nil {
		t.Fatal(err)
	}
	if tbl, err = tbl.AppendBatch(row(engine.NewInt(3))); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := Advance(res, tbl); err == nil || !strings.Contains(err.Error(), "compare") {
			t.Fatalf("attempt %d: want the HAVING error, got %v", attempt, err)
		}
	}
}

// TestAdvanceReadsNoOldSegments is the positive twin: with every old
// segment file corrupted since the fresh run, an advance still returns
// the reference's answer, because it faults none of them — group keys
// are carried, materialize takes plain items from them, and the suffix
// is all the scan reads.
func TestAdvanceReadsNoOldSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fs := store.NewMemFS()
	buildOOCTable(t, fs, rng, 8)
	oracle := residentReopen(t, fs)
	st, tbl := reopen(t, fs, 4096)
	defer st.Close()
	sqls := []string{
		"SELECT s, count(*) AS n FROM p GROUP BY s",
		"SELECT f, bucket(i, 3) AS b, sum(f) AS v FROM p WHERE j < 3 GROUP BY f, bucket(i, 3) ORDER BY v",
	}
	fresh := make([]*Result, len(sqls))
	for i, sql := range sqls {
		var err error
		if fresh[i], err = RunOn(tbl, mustParse(t, sql)); err != nil {
			t.Fatal(err)
		}
	}
	batch := oocBatch(rng, 10)
	if _, err := st.Append("p", batch); err != nil {
		t.Fatal(err)
	}
	grown, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if oracle, err = oracle.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	corruptSegments(t, fs)
	for i, sql := range sqls {
		adv, err := Advance(fresh[i], grown)
		if err != nil {
			t.Fatalf("advance over corrupted-but-unread segments: %v [%s]", err, sql)
		}
		if !adv.Plan.Incremental || adv.Plan.ChunksFaulted != 0 {
			t.Fatalf("advance faulted old segments: %+v [%s]", adv.Plan, sql)
		}
		ref, err := runRef(oracle, adv.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, sql, ref.Table, adv.Table)
		groupsEqual(t, sql, ref, adv)
		if n := st.PoolPinned(); n != 0 {
			t.Fatalf("%d chunks still pinned [%s]", n, sql)
		}
	}
}

// edgeFirstRows open every edge table: the rows whose cells a lossy read
// path mangles come first, so each is some group's first row — the row
// Group.Key is boxed from — in every statement of edgeKeySQL.
func edgeFirstRows() [][]engine.Value {
	big := int64(1<<53 + 1)
	negNaN := engine.NewFloat(math.Float64frombits(0xFFF8000000000abc))
	return [][]engine.Value{
		{engine.NewInt(big), engine.NewFloat(math.Copysign(0, -1)), engine.Null, engine.Null, engine.NewTimeUnix(big)},
		{engine.Null, negNaN, engine.NewBool(true), engine.NewString("A"), engine.Null},
		{engine.NewInt(-big), engine.NewFloat(0), engine.NewBool(false), engine.NewString("a"), engine.NewTimeUnix(0)},
		{engine.NewInt(1 << 53), engine.NewFloat(math.NaN()), engine.Null, engine.NewString(""), engine.NewTimeUnix(big - 1)},
	}
}

// edgeKeySQL groups on every column kind and on computed keys. The
// aggregates are order-insensitive (count, min, max): the statements
// pin keys, not sums.
var edgeKeySQL = []string{
	"SELECT f, count(*) AS n, min(i) AS lo FROM p GROUP BY f",
	"SELECT i, count(*) AS n, max(f) AS hi FROM p GROUP BY i",
	"SELECT t, b, count(*) AS n FROM p GROUP BY t, b",
	"SELECT s, count(f) AS n FROM p WHERE i IS NOT NULL GROUP BY s",
	"SELECT coalesce(s, 'A') AS k, count(*) AS n FROM p GROUP BY coalesce(s, 'A')",
	"SELECT i + 0 AS k, f, count(*) AS n FROM p GROUP BY i + 0, f ORDER BY n",
	"SELECT b, i, s, f, t, count(*) AS n FROM p GROUP BY b, i, s, f, t",
}

// TestOutOfCoreTypedReaderCells: through 256-byte and 4 KiB pools —
// either far smaller than one 64-row chunk set, so every read faults and
// evicts — every cell of the edge table read through RowReader and
// Table.Value is the resident table's bit for bit, grouped statements
// whose first rows hold -0.0, a NaN payload, 2^53+1 and NULL box the
// reference's keys, nothing stays pinned, and a mid-read
// checksum failure releases its pins too.
func TestOutOfCoreTypedReaderCells(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fs := store.NewMemFS()
	st, err := store.Open("d", oocOpts(fs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTable("p", enginetest.EdgeSchema(), engine.MinSegmentBits); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("p", append(edgeFirstRows(), enginetest.EdgeRows(rng, 400)...)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	oracle := residentReopen(t, fs)
	for _, pool := range []int64{256, 4096} {
		lazySt, lazy := reopen(t, fs, pool)
		if !lazy.SegmentFaultable(0) {
			t.Fatal("lazy reopen is resident")
		}
		rr := lazy.NewRowReader()
		row := make([]engine.Value, lazy.NumCols())
		for r := 0; r < lazy.NumRows(); r++ {
			rr.RowInto(r, row)
			for c := range row {
				if w := oracle.Value(r, c); !sameCell(w, row[c]) || !sameCell(w, lazy.Value(r, c)) {
					t.Fatalf("pool %d: cell (%d, %d): reader %#v, table %#v, resident %#v", pool, r, c, row[c], lazy.Value(r, c), w)
				}
			}
		}
		rr.Close()
		if n := lazySt.PoolPinned(); n != 0 {
			t.Fatalf("pool %d: %d chunks pinned after Close", pool, n)
		}

		for _, sql := range edgeKeySQL {
			stmt := mustParse(t, sql)
			ref, err := runRef(oracle, stmt)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			label := fmt.Sprintf("pool %d [%s]", pool, sql)
			res, err := RunOn(lazy, stmt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			tablesEqual(t, label, ref.Table, res.Table)
			groupsEqual(t, label, ref, res)
			assertPipeline(t, label, res)
			if n := lazySt.PoolPinned(); n != 0 {
				t.Fatalf("pool %d: %d chunks pinned after [%s]", pool, n, sql)
			}
		}
		if err := lazySt.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A read that runs into a corrupted section fails as a
	// SegmentLoadError part-way through and still releases every pin.
	lazySt, lazy := reopen(t, fs, 256)
	defer lazySt.Close()
	corruptSegments(t, fs)
	err = func() (err error) {
		defer engine.CatchSegmentLoad(&err)
		rr := lazy.NewRowReader()
		defer rr.Close()
		row := make([]engine.Value, lazy.NumCols())
		for r := 0; r < lazy.NumRows(); r++ {
			rr.RowInto(r, row)
		}
		return nil
	}()
	var sle *engine.SegmentLoadError
	if !errors.As(err, &sle) {
		t.Fatalf("read of a corrupted segment: want a SegmentLoadError, got %v", err)
	}
	if n := lazySt.PoolPinned(); n != 0 {
		t.Fatalf("%d chunks pinned after the failed read", n)
	}
}

// TestOutOfCoreGroupKeysAcrossAdvance carries the edge statements over a
// three-step chain whose every suffix is a faultable segment, with a
// retention pass on the way: each advanced result — keys carried from
// the fresh run, keys born in a suffix scan, keys rebuilt by the re-run
// retention forces — equals the reference over a resident copy of the
// same window, Group.Key bit for bit.
func TestOutOfCoreGroupKeysAcrossAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src, err := engine.NewTableSeg("p", enginetest.EdgeSchema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if src, err = src.AppendBatch(append(edgeFirstRows(), enginetest.EdgeRows(rng, 5*64)...)); err != nil {
		t.Fatal(err)
	}
	// window is the resident copy of a twin version's rows.
	window := func(twin *engine.Table) *engine.Table {
		rows := make([]int, twin.NumRows())
		for r := range rows {
			rows[r] = twin.Base() + r
		}
		return src.Select(rows)
	}
	sawIncremental, sawFallback := false, false
	for _, sql := range edgeKeySQL {
		stmt := mustParse(t, sql)
		twin, loader := enginetest.New(src)
		twin = loader.Attach(loader.Attach(twin))
		res, err := RunOn(twin, stmt)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for step := 0; step < 3; step++ {
			twin = loader.Attach(twin)
			if step == 1 {
				if twin, _, err = twin.RetainTail(engine.RetentionPolicy{MaxRows: 3 * 64}); err != nil {
					t.Fatal(err)
				}
			}
			adv, err := Advance(res, twin)
			if err != nil {
				t.Fatalf("step %d [%s]: %v", step, sql, err)
			}
			sawIncremental = sawIncremental || adv.Plan.Incremental
			sawFallback = sawFallback || adv.Plan.Fallback != ""
			ref, err := runRef(window(twin), stmt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("step %d [%s]", step, sql)
			tablesEqual(t, label, ref.Table, adv.Table)
			groupsEqual(t, label, ref, adv)
			if _, _, _, pinned := loader.Counts(); pinned != 0 {
				t.Fatalf("%s: %d chunks still pinned", label, pinned)
			}
			res = adv
		}
	}
	if !sawIncremental || !sawFallback {
		t.Fatalf("harness coverage: sawIncremental=%v sawFallback=%v", sawIncremental, sawFallback)
	}
}

// scanMixWork is what one scan_mix shape costs on the faultable twins
// below, in units no clock enters: the chunk pins its plan reports
// (ChunksFaulted + ChunksResident) and the pins the loader served.
type scanMixWork struct {
	shape                string
	planPins, loaderPins int
}

// TestScanMixShapesSameWork runs the benchmark's eight scan_mix statement
// shapes (bench/script.go) in process, in a fixed order, over faultable
// twins of its two tables, and holds the pins
// each one takes — as its plan reports them and as the loader counted
// them — to the numbers recorded at the commit before the column readers
// were unified (PR 26, 0274026): the one reader pins exactly what the
// five it replaced pinned, and every pin is released. No shape
// evaluates a WHERE row by row: the residual shape's LIKE on a string
// column lowers to a clause mask like its comparison.
func TestScanMixShapesSameWork(t *testing.T) {
	const segBits = 10
	twin := func(src *engine.Table) (*engine.Table, *enginetest.Loader) {
		small, err := engine.NewTableSeg(src.Name(), src.Schema(), segBits)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]engine.Value, src.NumRows())
		for r := range rows {
			rows[r] = src.Row(r)
		}
		if small, err = small.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		return enginetest.Faultable(small)
	}
	intel, _ := datasets.Intel(datasets.IntelConfig{Rows: 5*(1<<segBits) + 300, Seed: 1})
	fec, _ := datasets.FEC(datasets.FECConfig{Rows: 3*(1<<segBits) + 200, Seed: 1})
	readings, rl := twin(intel)
	donations, dl := twin(fec)
	pins := func() int {
		rf, rc, ri, rp := rl.Counts()
		df, dc, di, dp := dl.Counts()
		if rp != 0 || dp != 0 {
			t.Fatalf("%d + %d chunks still pinned", rp, dp)
		}
		return rf + rc + ri + df + dc + di
	}
	shapes := []struct {
		shape string
		tbl   *engine.Table
		sql   string
	}{
		{"grouped", readings, "SELECT bucket(epoch(ts), 1800) AS w, avg(temperature) AS avg_temp, stddev(temperature) AS std_temp FROM readings GROUP BY bucket(epoch(ts), 1800) ORDER BY w"},
		{"selective", readings, "SELECT bucket(epoch(ts), 3600) AS w, avg(temperature) AS avg_temp, count(*) AS n FROM readings WHERE moteid = 17 AND temperature > 20.5 GROUP BY bucket(epoch(ts), 3600) ORDER BY w"},
		{"global", readings, "SELECT count(*) AS n, sum(temperature) AS total, min(temperature) AS lo, max(temperature) AS hi FROM readings WHERE humidity > 38.25"},
		{"orchain", readings, "SELECT moteid, count(*) AS n, avg(voltage) AS volts FROM readings WHERE moteid = 17 OR temperature > 101.5 OR humidity < -3.2 GROUP BY moteid ORDER BY moteid"},
		{"zonemap", readings, "SELECT moteid, avg(temperature) AS avg_temp FROM readings WHERE epoch BETWEEN 10 AND 60 GROUP BY moteid ORDER BY moteid"},
		{"fecdaily", donations, datasets.FECDailySQL("McCain")},
		{"residual", donations, "SELECT day, sum(amount) AS total FROM donations WHERE candidate = 'McCain' AND memo LIKE '%SPOUSE%' GROUP BY day ORDER BY day"},
		{"distinct", readings, "SELECT count(DISTINCT epoch) AS n FROM readings WHERE moteid = 17"},
	}
	var got []scanMixWork
	for _, s := range shapes {
		before := pins()
		res, err := RunOn(s.tbl, mustParse(t, s.sql))
		if err != nil {
			t.Fatalf("%s: %v", s.shape, err)
		}
		assertPipeline(t, s.shape, res)
		if res.NumRows() == 0 {
			t.Fatalf("%s: no rows", s.shape)
		}
		if res.Plan.ResidualConjuncts != 0 || res.Plan.ResidualRows != 0 {
			t.Fatalf("%s: a WHERE conjunct was evaluated per row: %+v", s.shape, res.Plan)
		}
		got = append(got, scanMixWork{s.shape, res.Plan.ChunksFaulted + res.Plan.ChunksResident, pins() - before})
	}
	for i, w := range scanMixWorkAtParent {
		if got[i] != w {
			t.Errorf("run %d: %+v, the parent commit did %+v", i, got[i], w)
		}
	}
	if t.Failed() {
		t.Logf("measured: %#v", got)
	}
}

// scanMixWorkAtParent is TestScanMixShapesSameWork's table as measured at
// 0274026: the eight shapes in one pass (the first statement to name a
// clause also builds its mask). A segment here is one fold block, so the
// table holds at any core count. The residual cell is the one exception,
// re-measured when LIKE on a string column began to lower: its loader
// pins went 9 → 6. Building the memo mask pins memo once a segment, as
// the per-row walk did, but with no residual after it the candidate
// comparison needs no FALSE mask, so the three pins that built
// candidate's non-NULL mask are gone.
var scanMixWorkAtParent = []scanMixWork{
	{"grouped", 14, 12}, {"selective", 13, 21}, {"global", 6, 10}, {"orchain", 15, 38},
	{"zonemap", 9, 19}, {"fecdaily", 11, 12}, {"residual", 5, 6}, {"distinct", 6, 5},
}
