package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
)

// sampleOutsideRef is sampleOutside as a walk row by row: the oracle the
// word-at-a-time sample is held to.
func sampleOutsideRef(n int, exclude *bitset.Bitset, want int) []int {
	outside := n - exclude.Count()
	if outside <= 0 || want <= 0 {
		return nil
	}
	want = min(want, outside)
	out := make([]int, 0, want)
	step := float64(outside) / float64(want)
	k := 0 // rank of r among the outside rows
	for r := 0; r < n && len(out) < want; r++ {
		if exclude.Get(r) {
			continue
		}
		if k == int(float64(len(out))*step) {
			out = append(out, r)
		}
		k++
	}
	return out
}

// learnPopulationRef is learnPopulation as a walk of F then extras,
// row by row, with a sort at the end: its oracle.
func learnPopulationRef(F, extras []int, culpable *bitset.Bitset, limit int) []int {
	pop := F
	if len(extras) > 0 {
		pop = append(append(make([]int, 0, len(F)+len(extras)), F...), extras...)
	}
	if limit <= 0 || len(pop) <= limit {
		return pop
	}
	learnPop := make([]int, 0, limit)
	others := make([]int, 0, len(pop))
	capCulp := limit * 3 / 4
	for _, r := range pop {
		switch {
		case !culpable.Get(r):
			others = append(others, r)
		case len(learnPop) < capCulp:
			learnPop = append(learnPop, r)
		}
	}
	rest := limit - len(learnPop)
	if rest >= len(others) {
		learnPop = append(learnPop, others...)
	} else {
		step := float64(len(others)) / float64(rest)
		for i := 0; i < rest; i++ {
			learnPop = append(learnPop, others[int(float64(i)*step)])
		}
	}
	sort.Ints(learnPop)
	return learnPop
}

// randomBits returns a bitset of n rows, each set with probability p.
func randomBits(rng *rand.Rand, n int, p float64) *bitset.Bitset {
	b := bitset.New(n)
	for r := range n {
		if rng.Float64() < p {
			b.Set(r)
		}
	}
	return b
}

// TestPopulationMatchesPerRow holds the contrast sample and the learning
// population, built a bitmap word at a time, to the row-by-row walks
// they replaced, on table sizes that end mid-word, empty and full F,
// samples that want every outside row, and caps that bind (on the
// culpable rows, on the rest, on both) and caps that do not.
func TestPopulationMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{1, 63, 64, 65, 1000, 4097, 20011} {
		for _, p := range []float64{0, 0.001, 0.3, 0.9, 1} {
			fBits := randomBits(rng, n, p)
			F := fBits.Rows()
			for _, want := range []int{0, 1, 7, 50, n / 3, n - len(F), n - len(F) + 5, 20000} {
				label := fmt.Sprintf("n=%d p=%g want=%d", n, p, want)
				extras := sampleOutside(fBits, want)
				if ref := sampleOutsideRef(n, fBits, want); !slices.Equal(extras, ref) {
					t.Fatalf("%s: sampleOutside %v, want %v", label, extras, ref)
				}
				for _, q := range []float64{0, 0.1, 0.8, 1} {
					culpable := bitset.New(n)
					for _, r := range F {
						if rng.Float64() < q {
							culpable.Set(r)
						}
					}
					pop := len(F) + len(extras)
					for _, limit := range []int{0, 1, 2, 10, pop / 2, pop - 1, pop, pop + 1} {
						got := learnPopulation(F, fBits, extras, limit, func() *bitset.Bitset { return culpable })
						if ref := learnPopulationRef(F, extras, culpable, limit); !slices.Equal(got, ref) {
							t.Fatalf("%s q=%g limit=%d: learnPopulation %v, want %v", label, q, limit, got, ref)
						}
					}
				}
			}
		}
	}
}
