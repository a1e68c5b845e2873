package feature

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// The frame tests pin the typed gather to the boxed reader: every cell,
// bucket and slot of a frame must equal what Table.Value (+
// sort.SearchFloat64s) gives, and every statistic must carry the bits
// the boxed row-at-a-time profile — kept below as the oracle — computes.

func frameSchema() engine.Schema {
	return engine.NewSchema("i", engine.TInt, "f", engine.TFloat, "s", engine.TString,
		"t", engine.TTime, "b", engine.TBool, "allnull", engine.TFloat)
}

// frameRow draws the values the typed decode could get wrong: NULLs in
// every column, NaN, ±Inf, signed zeros, ints that float64 cannot hold
// exactly, and more distinct strings than maxCategories keeps.
func frameRow(rng *rand.Rand) []engine.Value {
	null := func(v engine.Value) engine.Value {
		if rng.Float64() < 0.15 {
			return engine.Null
		}
		return v
	}
	i := engine.NewInt(int64(rng.Intn(40) - 20))
	if rng.Float64() < 0.1 {
		i = engine.NewInt(1<<53 + int64(rng.Intn(1000))*3 + 1)
	}
	var f engine.Value
	switch x := rng.Float64(); {
	case x < 0.08:
		f = engine.NewFloat(math.NaN())
	case x < 0.12:
		f = engine.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
	case x < 0.2:
		f = engine.NewFloat(math.Copysign(0, float64(1-2*rng.Intn(2))))
	default:
		f = engine.NewFloat(float64(rng.Intn(200)-100) * 0.37)
	}
	s := engine.NewString(fmt.Sprintf("v%02d", int(math.Abs(rng.NormFloat64()*8))))
	if rng.Float64() < 0.05 {
		s = engine.NewString("")
	}
	return []engine.Value{
		null(i), null(f), null(s),
		null(engine.NewTimeUnix(int64(rng.Intn(100000)))),
		null(engine.NewBool(rng.Intn(2) == 1)),
		engine.Null,
	}
}

func frameRows(rng *rand.Rand, n int) [][]engine.Value {
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = frameRow(rng)
	}
	return rows
}

// boxedProfile is the profile (thresholds included) NewSpace computed
// before the frame existed: statistics through boxed per-row reads.
func boxedProfile(t *engine.Table, c int, rows []int) (Attr, bool) {
	col := t.Schema()[c]
	attr := Attr{Name: col.Name, Col: c, Type: col.Type}
	if col.Type == engine.TString {
		attr.Kind = Categorical
		counts, repr := map[string]int{}, map[string]engine.Value{}
		for _, r := range rows {
			if v := t.Value(r, c); !v.IsNull() {
				counts[v.Key()]++
				repr[v.Key()] = v
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys[:min(len(keys), maxCategories)] {
			attr.Values = append(attr.Values, repr[k])
		}
		return attr, len(keys) > 0
	}
	var vals []float64
	for _, r := range rows {
		v := t.Value(r, c)
		if f := v.Float(); !v.IsNull() && !math.IsNaN(f) && !math.IsInf(f, 0) {
			if f == 0 {
				f = 0 // a cut at zero is +0, whichever zero the sort left there
			}
			vals = append(vals, f)
		}
	}
	if len(vals) == 0 {
		return attr, false
	}
	sort.Float64s(vals)
	prev := math.Inf(-1)
	for q := 1; q <= numThresholds; q++ {
		if cut := vals[q*(len(vals)-1)/(numThresholds+1)]; cut > prev {
			attr.Thresholds = append(attr.Thresholds, cut)
			prev = cut
		}
	}
	return attr, true
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSpace compares a space built over rows, cell by cell and
// statistic by statistic, against boxed reads of tbl.
func checkSpace(t *testing.T, label string, tbl *engine.Table, rows []int, opt Options) {
	t.Helper()
	// Construction's two steps: the profile alone carries no thresholds
	// and no bins, and the second step changes nothing of it — together
	// they are the space NewSpace built in one go before the split, which
	// is what the boxed reference below still computes.
	sp := NewSpace(tbl, withRows(opt, rows))
	if sp.Frame.Bins != nil {
		t.Fatalf("%s: a profile-only space carries bins", label)
	}
	profile := slices.Clone(sp.Attrs)
	for _, a := range profile {
		if a.Thresholds != nil {
			t.Fatalf("%s: a profile-only space carries thresholds: %+v", label, a)
		}
	}
	floats, codes := slices.Clone(sp.Frame.Floats), slices.Clone(sp.Frame.Codes)
	if sp.Discretize() != sp || sp.Frame.Bins == nil {
		t.Fatalf("%s: Discretize did not complete the space in place", label)
	}
	for ai, was := range profile {
		now := sp.Attrs[ai]
		now.Thresholds = nil
		if !reflect.DeepEqual(was, now) ||
			(floats[ai] != nil && &floats[ai][0] != &sp.Frame.Floats[ai][0]) ||
			(codes[ai] != nil && &codes[ai][0] != &sp.Frame.Codes[ai][0]) {
			t.Fatalf("%s: Discretize changed attribute %d's profile or gathered it again:\nwas %+v\nnow %+v", label, ai, was, now)
		}
	}
	if bins := sp.Frame.Bins; len(bins) > 0 && &sp.Discretize().Frame.Bins[0] != &bins[0] {
		t.Fatalf("%s: a second Discretize rebuilt the bins", label)
	}
	all := rows
	if all == nil {
		all = make([]int, tbl.NumRows())
		for i := range all {
			all[i] = i
		}
	}
	sample := all
	if len(all) > sampleCap {
		sample = nil
		step := float64(len(all)) / float64(sampleCap)
		for i := 0; i < sampleCap; i++ {
			sample = append(sample, all[int(float64(i)*step)])
		}
	}
	fr := sp.Frame
	if len(fr.Rows) != len(all) {
		t.Fatalf("%s: frame covers %d rows, want %d", label, len(fr.Rows), len(all))
	}
	ai := 0
	for c, col := range tbl.Schema() {
		want, ok := boxedProfile(tbl, c, sample)
		if !ok || slices.ContainsFunc(opt.Exclude, func(e string) bool { return strings.EqualFold(e, col.Name) }) {
			continue
		}
		if ai >= len(sp.Attrs) || sp.Attrs[ai].Col != c {
			t.Fatalf("%s: attribute %d is not column %d: %+v", label, ai, c, sp.Attrs)
		}
		got := sp.Attrs[ai]
		if got.Kind != want.Kind ||
			len(got.Thresholds) != len(want.Thresholds) || len(got.Values) != len(want.Values) {
			t.Fatalf("%s: column %d profile\n got %+v\nwant %+v", label, c, got, want)
		}
		for k := range want.Thresholds {
			if !sameFloat(got.Thresholds[k], want.Thresholds[k]) {
				t.Fatalf("%s: column %d threshold %d: %v vs %v", label, c, k, got.Thresholds[k], want.Thresholds[k])
			}
		}
		for k := range want.Values {
			if !engine.Equal(got.Values[k], want.Values[k]) {
				t.Fatalf("%s: column %d value %d: %v vs %v", label, c, k, got.Values[k], want.Values[k])
			}
		}
		checkColumn(t, label, tbl, fr, ai)
		for i, r := range all {
			v := tbl.Value(r, c)
			wantBin := -1
			if got.Kind == Numeric {
				if wantBin = len(got.Thresholds); !v.IsNull() && !math.IsNaN(v.Float()) {
					wantBin = sort.SearchFloat64s(got.Thresholds, v.Float())
				}
			} else if !v.IsNull() {
				for k, val := range got.Values {
					if val.S == v.S {
						wantBin = k
					}
				}
			}
			if len(got.Thresholds)+len(got.Values) == 0 {
				if fr.Bins[ai] != nil {
					t.Fatalf("%s: column %d has bins without a vocabulary", label, c)
				}
			} else if int(fr.Bins[ai][i]) != wantBin {
				t.Fatalf("%s: column %d row %d (%v): bin %d, want %d", label, c, r, v, fr.Bins[ai][i], wantBin)
			}
		}
		ai++
	}
	if ai != len(sp.Attrs) {
		t.Fatalf("%s: %d attributes, the boxed profile keeps %d", label, len(sp.Attrs), ai)
	}
}

func withRows(opt Options, rows []int) Options {
	opt.Rows = rows
	return opt
}

// checkColumn compares one gathered column against boxed reads: floats
// by bits (NULL reads NaN), codes by NULL-ness and string equality
// classes.
func checkColumn(t *testing.T, label string, tbl *engine.Table, fr *Frame, ai int) {
	t.Helper()
	c := fr.Space.Attrs[ai].Col
	strOf := map[int32]string{}
	for i, r := range fr.Rows {
		v := tbl.Value(r, c)
		if fr.Floats[ai] != nil {
			want := math.NaN()
			if !v.IsNull() {
				want = v.Float()
			}
			if !sameFloat(fr.Floats[ai][i], want) {
				t.Fatalf("%s: column %d row %d: cell %v, want %v", label, c, r, fr.Floats[ai][i], want)
			}
			continue
		}
		code := fr.Codes[ai][i]
		if (code < 0) != v.IsNull() {
			t.Fatalf("%s: column %d row %d (%v): code %d", label, c, r, v, code)
		}
		if s, seen := strOf[code]; code >= 0 && seen && s != v.S {
			t.Fatalf("%s: column %d: code %d is both %q and %q", label, c, code, s, v.S)
		}
		strOf[code] = v.S
	}
	byStr := map[string]int32{}
	for code, s := range strOf {
		if other, dup := byStr[s]; dup && code >= 0 && other >= 0 {
			t.Fatalf("%s: column %d: %q has codes %d and %d", label, c, s, code, other)
		}
		byStr[s] = code
	}
}

func TestFrameMatchesBoxedReader(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	quiet := func(string, ...any) {}
	for _, n := range []int{1, 63, 64, 65, 128, 200, 333} {
		rows := frameRows(rng, n)
		resident, err := engine.NewTableSeg("p", frameSchema(), engine.MinSegmentBits)
		if err != nil {
			t.Fatal(err)
		}
		if resident, err = resident.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}

		// The same rows served out of core through a pool smaller than
		// one decoded chunk.
		fs := store.NewMemFS()
		st, err := store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateTable("p", frameSchema(), engine.MinSegmentBits); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append("p", rows); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = store.Open("/db", store.Options{SyncEvery: 1, FS: fs, Logf: quiet, MaxResidentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := st.Eng().Table("p")
		if err != nil {
			t.Fatal(err)
		}

		for name, tbl := range map[string]*engine.Table{"resident": resident, "out-of-core": faulted} {
			label := fmt.Sprintf("%s n=%d", name, n)
			checkSpace(t, label+" all rows", tbl, nil, Options{})
			// An unsorted subset with repeats, like F followed by contrast rows.
			subset := make([]int, 0, n)
			for i := 0; i < n; i++ {
				subset = append(subset, rng.Intn(n))
			}
			checkSpace(t, label+" subset", tbl, subset, Options{Exclude: []string{"T"}})

		}
		if pinned := st.PoolPinned(); pinned != 0 {
			t.Fatalf("n=%d: %d chunks pinned after the frames were built", n, pinned)
		}
		if n > 64 {
			if stats := st.Stats(); stats.Pool == nil || stats.Pool.Misses == 0 {
				t.Fatalf("n=%d: the out-of-core table never faulted a chunk: %+v", n, stats.Pool)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameStaleVersionFallback pins the frame of a table version
// retention has superseded: it gathers through the same column readers as
// any other — out of the segment it still holds and its own tail.
func TestFrameStaleVersionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old, err := engine.NewTableSeg("p", frameSchema(), engine.MinSegmentBits)
	if err != nil {
		t.Fatal(err)
	}
	if old, err = old.AppendBatch(frameRows(rng, 100)); err != nil {
		t.Fatal(err)
	}
	grown, err := old.AppendBatch(frameRows(rng, 100)) // seals old's tail
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := grown.RetainTail(engine.RetentionPolicy{MaxRows: 70}); err != nil || stats.DroppedSegments == 0 {
		t.Fatalf("retain: %+v %v", stats, err)
	}
	if old.Dict(2).NumValues() == 0 {
		t.Fatal("a version retention has superseded has no dictionary")
	}
	checkSpace(t, "stale version", old, nil, Options{})
}
