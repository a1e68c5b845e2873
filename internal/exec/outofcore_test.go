package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// End-to-end out-of-core query tests: the same on-disk table opened
// fully resident is the oracle for the lazily-attached, buffer-pooled
// reopen. A deliberately tiny pool forces constant eviction, so every
// statement exercises fault → pin → release across shard boundaries,
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
// the recovered table. cacheBytes == 0 is the fully resident oracle.
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

func TestOutOfCoreQueryParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := store.NewMemFS()
		buildOOCTable(t, fs, rng, 6+rng.Intn(6))

		oracleSt, oracle := reopen(t, fs, 0)
		if err := oracleSt.Close(); err != nil {
			t.Fatal(err)
		}
		// 4 KiB: a fraction of one decoded segment column set, so every
		// scan faults and evicts continuously.
		lazySt, lazy := reopen(t, fs, 4096)

		for iter := 0; iter < 40; iter++ {
			stmt, _ := randStmt(rng)
			sql := stmt.String()

			ref, refErr := runRef(oracle, stmt)
			for shards := 1; shards <= 4; shards++ {
				label := fmt.Sprintf("seed %d iter %d lazy shards=%d [%s]", seed, iter, shards, sql)
				res, err := runWith(lazy, stmt, Options{Shards: shards})
				if (refErr != nil) != (err != nil) {
					t.Fatalf("%s: error disagreement\nref: %v\nlazy: %v", label, refErr, err)
				}
				if refErr != nil {
					continue
				}
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

	oracleSt, oracle := reopen(t, fs, 0)
	if err := oracleSt.Close(); err != nil {
		t.Fatal(err)
	}
	lazySt, lazy := reopen(t, fs, 1<<20)
	defer lazySt.Close()

	// One segment's worth of matches: every other sealed segment's zone
	// range excludes 5000, so pruning must skip them without faulting.
	stmt := mustParse(t, "SELECT s, sum(f) AS total, count(*) AS n FROM p WHERE i = 5000 GROUP BY s")
	ref, err := runRef(oracle, stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWith(lazy, stmt, Options{Shards: 1})
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
	resNone, err := runWith(lazy, none, Options{Shards: 1})
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

	oracleSt, oracle := reopen(t, fs, 0)
	if err := oracleSt.Close(); err != nil {
		t.Fatal(err)
	}
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
		for _, shards := range []int{1, 4} {
			res, err := runWith(lazy, stmt, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("shards=%d [%s]", shards, sql)
			tablesEqual(t, label, ref.Table, res.Table)
			groupsEqual(t, label, ref, res)
		}
		if n := lazySt.PoolPinned(); n != 0 {
			t.Fatalf("%d chunks still pinned after [%s]", n, sql)
		}
	}

	// f >= 0 matches the -0.0 segment (64), the +0.0 segment (64), the
	// all-NaN segment (NaN compares equal to everything: 64), the far
	// segment (64), the mixed segment's NaN/-0.0/1.0 rows (48), and the
	// tail (10). The -0.0-only segment contributing all 64 is the
	// regression this test exists for.
	res, err := runWith(lazy, mustParse(t, "SELECT count(*) AS n FROM p WHERE f >= 0"), Options{Shards: 1})
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
	resLt, err := runWith(lazy, mustParse(t, "SELECT count(*) AS n FROM p WHERE f < 0 GROUP BY g"), Options{Shards: 1})
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

// TestAdvanceReleasesClaimOnLoadFailure: a chunk-load failure after the
// suffix scan — materialize faulting a carried group's first row out of
// a segment file corrupted since the fresh run — must release the
// advance claim like any other error, so the caller can retry instead
// of being told the result was already advanced.
func TestAdvanceReleasesClaimOnLoadFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fs := store.NewMemFS()
	buildOOCTable(t, fs, rng, 8)
	st, tbl := reopen(t, fs, 4096)
	defer st.Close()
	res, err := RunOn(tbl, mustParse(t, "SELECT s, count(*) AS n FROM p GROUP BY s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("p", oocBatch(rng, 10)); err != nil {
		t.Fatal(err)
	}
	grown, err := st.Eng().Table("p")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the column sections of the first sealed segment: the
	// suffix scan never reads it, materialize does.
	corrupted := false
	for _, f := range fs.Files() {
		if strings.HasSuffix(f, "00000000.seg") {
			size, err := fs.FileSize(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.FlipBit(f, size/2, 5); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no first segment file to corrupt")
	}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := Advance(res, grown)
		if err == nil {
			t.Fatal("advance over a corrupted segment succeeded")
		}
		if strings.Contains(err.Error(), "already advanced") {
			t.Fatalf("attempt %d: load failure leaked the advance claim: %v", attempt, err)
		}
	}
}
