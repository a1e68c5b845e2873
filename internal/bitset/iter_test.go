package bitset

import (
	"math/rand"
	"testing"
)

// iterGrid is the edge grid for the set-bit cursor kernels: empty sets,
// single bits at word boundaries, runs straddling boundaries, a
// trailing partial word, and all-ones — at lengths that exercise exact
// multiples of 64 and off-by-one neighbours.
func iterGrid() []struct {
	name string
	n    int
	rows []int
} {
	return []struct {
		name string
		n    int
		rows []int
	}{
		{"empty-0", 0, nil},
		{"empty-1", 1, nil},
		{"empty-64", 64, nil},
		{"empty-200", 200, nil},
		{"bit0", 64, []int{0}},
		{"bit63", 64, []int{63}},
		{"bit64", 65, []int{64}},
		{"word-boundary-pair", 130, []int{63, 64}},
		{"straddle-run", 200, []int{62, 63, 64, 65, 127, 128, 129}},
		{"last-bit-partial", 70, []int{69}},
		{"last-bit-full", 128, []int{127}},
		{"sparse-words", 512, []int{0, 200, 511}},
		{"empty-middle-words", 320, []int{5, 300}},
		{"all-ones-partial", 70, seqRows(70)},
		{"all-ones-full", 128, seqRows(128)},
	}
}

func seqRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestIterGrid(t *testing.T) {
	for _, tc := range iterGrid() {
		b := FromRows(tc.n, tc.rows)
		for start := 0; start <= tc.n+1; start++ {
			var want []int
			for _, r := range b.Rows() {
				if r >= start {
					want = append(want, r)
				}
			}
			var got []int
			it := b.Iter(start)
			for {
				i, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, i)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s: Iter(%d) = %v, want %v", tc.name, start, got, want)
			}
		}
	}
}

// The residual filter unsets visited (and sometimes the current) bits
// while iterating; the cursor must not skip or repeat positions.
func TestIterStableUnderUnset(t *testing.T) {
	for _, tc := range iterGrid() {
		b := FromRows(tc.n, tc.rows)
		want := b.Rows()
		var got []int
		it := b.Iter(0)
		for {
			i, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, i)
			b.Unset(i) // clear the bit just visited
			if len(got) >= 2 {
				b.Unset(got[len(got)-2]) // and re-clear an earlier one
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("%s: Iter under Unset = %v, want %v", tc.name, got, want)
		}
	}
}

func TestIterRandomizedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(700)
		b := FromRows(n, randRows(rng, n+2))
		start := rng.Intn(n + 1)
		var want []int
		b.ForEach(func(i int) {
			if i >= start {
				want = append(want, i)
			}
		})
		var got []int
		it := b.Iter(start)
		for {
			i, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, i)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d (n=%d start=%d): iter=%v want=%v", trial, n, start, got, want)
		}
	}
}

// The fused count kernels and the unrolled in-place algebra must agree
// with the composition of their unfused parts at every length mod 4
// (the unroll width) and mod 64 (the word width).
func TestFusedCountKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{1, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 1024}
	for _, n := range lengths {
		for trial := 0; trial < 10; trial++ {
			a := FromRows(n, randRows(rng, n+2))
			b := FromRows(n, randRows(rng, n+2))

			x := a.Clone()
			if got := x.AndCountWith(b); got != AndCount(a, b) || got != x.Count() {
				t.Fatalf("n=%d: AndCountWith = %d, AndCount = %d, Count = %d", n, got, AndCount(a, b), x.Count())
			}
			ref := a.Clone()
			ref.And(b)
			if !equalInts(x.Rows(), ref.Rows()) {
				t.Fatalf("n=%d: AndCountWith bits diverge from And", n)
			}

			x = a.Clone()
			got := x.AndNotCountWith(b)
			ref = a.Clone()
			ref.AndNot(b)
			if got != ref.Count() || !equalInts(x.Rows(), ref.Rows()) {
				t.Fatalf("n=%d: AndNotCountWith = %d, want %d", n, got, ref.Count())
			}

			z := New(n)
			z.IntersectOf(a, b)
			if !equalInts(z.Rows(), ref2(a, b, func(p, q bool) bool { return p && q }, n)) {
				t.Fatalf("n=%d: IntersectOf mismatch", n)
			}
			z.AndNotOf(a, b)
			if !equalInts(z.Rows(), ref2(a, b, func(p, q bool) bool { return p && !q }, n)) {
				t.Fatalf("n=%d: AndNotOf mismatch", n)
			}
		}
	}
}

func ref2(a, b *Bitset, op func(p, q bool) bool, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if op(a.Get(i), b.Get(i)) {
			out = append(out, i)
		}
	}
	return out
}

func BenchmarkIter(b *testing.B) {
	n := 100_000
	rng := rand.New(rand.NewSource(5))
	s := FromRows(n, randRows(rng, n))
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		it := s.Iter(0)
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			sink += r
		}
	}
	_ = sink
}

func BenchmarkAndCountWith(b *testing.B) {
	n := 100_000
	rng := rand.New(rand.NewSource(6))
	x := FromRows(n, randRows(rng, n))
	y := FromRows(n, randRows(rng, n))
	scratch := x.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(x)
		scratch.AndCountWith(y)
	}
}
