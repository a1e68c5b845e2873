package bitset

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBasicOps(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		b.Set(i)
	}
	b.Set(-1)
	b.Set(130) // ignored
	if got := b.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if !b.Get(63) || !b.Get(64) || b.Get(2) || b.Get(130) || b.Get(-5) {
		t.Fatal("Get mismatch")
	}
	b.Unset(64)
	if b.Get(64) || b.Count() != 5 {
		t.Fatal("Unset failed")
	}
	want := []int{0, 1, 63, 65, 129}
	if got := b.Rows(); !equalInts(got, want) {
		t.Fatalf("Rows = %v, want %v", got, want)
	}
}

func TestFromRowsIgnoresOutOfRange(t *testing.T) {
	b := FromRows(10, []int{-3, 0, 5, 9, 10, 100})
	if got := b.Rows(); !equalInts(got, []int{0, 5, 9}) {
		t.Fatalf("Rows = %v", got)
	}
}

func TestFillAndTrim(t *testing.T) {
	b := New(70)
	b.Fill()
	if got := b.Count(); got != 70 {
		t.Fatalf("Fill Count = %d", got)
	}
	if b.Get(70) {
		t.Fatal("ghost bit beyond Len")
	}
}

func TestSetAlgebra(t *testing.T) {
	n := 200
	a := FromRows(n, []int{1, 5, 64, 100, 199})
	b := FromRows(n, []int{5, 64, 101, 199})

	x := a.Clone()
	x.And(b)
	if got := x.Rows(); !equalInts(got, []int{5, 64, 199}) {
		t.Fatalf("And = %v", got)
	}
	if got := AndCount(a, b); got != 3 {
		t.Fatalf("AndCount = %d", got)
	}

	x = a.Clone()
	x.AndNot(b)
	if got := x.Rows(); !equalInts(got, []int{1, 100}) {
		t.Fatalf("AndNot = %v", got)
	}

	x = a.Clone()
	x.Or(b)
	if got := x.Count(); got != 6 {
		t.Fatalf("Or Count = %d", got)
	}

	inter := New(n)
	inter.IntersectOf(a, b)
	if got := inter.Rows(); !equalInts(got, []int{5, 64, 199}) {
		t.Fatalf("IntersectOf = %v", got)
	}

	y := New(n)
	y.CopyFrom(a)
	if got := y.Rows(); !equalInts(got, a.Rows()) {
		t.Fatalf("CopyFrom = %v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(10).And(New(20))
}

func TestWordRange(t *testing.T) {
	b := New(500)
	if _, _, ok := b.WordRange(); ok {
		t.Fatal("empty set has no word range")
	}
	b.Set(70)
	b.Set(300)
	lo, hi, ok := b.WordRange()
	if !ok || lo != 1 || hi != 4 {
		t.Fatalf("WordRange = (%d,%d,%v)", lo, hi, ok)
	}
}

func TestForEachOrder(t *testing.T) {
	rows := []int{3, 77, 64, 128, 4}
	b := FromRows(200, rows)
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	sort.Ints(rows)
	if !equalInts(got, rows) {
		t.Fatalf("ForEach = %v, want %v", got, rows)
	}
}

// TestRandomizedAgainstMap cross-checks the bitmap against a reference
// map implementation over random operations.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 1000
	for trial := 0; trial < 50; trial++ {
		ra, rb := randRows(rng, n), randRows(rng, n)
		a, b := FromRows(n, ra), FromRows(n, rb)
		ma, mb := toSet(ra), toSet(rb)

		var wantInter, wantDiff []int
		for r := range ma {
			if mb[r] {
				wantInter = append(wantInter, r)
			} else {
				wantDiff = append(wantDiff, r)
			}
		}
		sort.Ints(wantInter)
		sort.Ints(wantDiff)

		x := a.Clone()
		x.And(b)
		if !equalInts(x.Rows(), wantInter) {
			t.Fatalf("trial %d: And mismatch", trial)
		}
		if AndCount(a, b) != len(wantInter) {
			t.Fatalf("trial %d: AndCount mismatch", trial)
		}
		x = a.Clone()
		x.AndNot(b)
		if !equalInts(x.Rows(), wantDiff) {
			t.Fatalf("trial %d: AndNot mismatch", trial)
		}
	}
}

func randRows(rng *rand.Rand, n int) []int {
	k := rng.Intn(n / 2)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, rng.Intn(n))
	}
	return out
}

func toSet(rows []int) map[int]bool {
	m := make(map[int]bool, len(rows))
	for _, r := range rows {
		m[r] = true
	}
	return m
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAndCount(b *testing.B) {
	n := 100_000
	rng := rand.New(rand.NewSource(1))
	x := FromRows(n, randRows(rng, n))
	y := FromRows(n, randRows(rng, n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}

// TestCanonicalWordHelpers covers SnapshotWords, the stamp behind the
// carried lineage bitsets and argument NULL masks: padding, truncation
// and ghost-bit trim.
func TestCanonicalWordHelpers(t *testing.T) {
	words := []uint64{1 << 3, 1, 0, 1 << (200 - 192)} // bits 3, 64, 200

	// Truncating snapshot: bit 64 survives at n=70, bit 200 is trimmed.
	s := SnapshotWords(70, words)
	if s.Len() != 70 || !s.Get(3) || !s.Get(64) || s.Count() != 2 {
		t.Fatalf("SnapshotWords(70): count=%d", s.Count())
	}
	// Padding snapshot: n beyond the canonical words reads as zeros.
	if s := SnapshotWords(1000, words); s.Len() != 1000 || s.Count() != 3 {
		t.Fatalf("SnapshotWords(1000): count=%d", s.Count())
	}
	// Ghost-bit trim inside a shared boundary word.
	if s := SnapshotWords(200, words); s.Get(200) || s.Count() != 2 {
		t.Fatal("SnapshotWords(200) kept a ghost bit")
	}
	// The input is not retained.
	words[0] = 0
	if !s.Get(3) {
		t.Fatal("SnapshotWords aliased its input")
	}
}
