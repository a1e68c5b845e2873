package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// checkRanges asserts the structural invariants every shard split must
// satisfy: non-empty list, non-overlapping contiguous ascending ranges,
// exhaustive over [0, n), 64-row-aligned interior boundaries, and at
// most nshards entries.
func checkRanges(t *testing.T, label string, ranges [][2]int, n, nshards int) {
	t.Helper()
	if len(ranges) == 0 {
		t.Fatalf("%s: no ranges", label)
	}
	if len(ranges) > nshards {
		t.Fatalf("%s: %d ranges for %d shards", label, len(ranges), nshards)
	}
	if ranges[0][0] != 0 {
		t.Fatalf("%s: first range starts at %d", label, ranges[0][0])
	}
	for i, r := range ranges {
		if r[1] <= r[0] && n > 0 {
			t.Fatalf("%s: empty range %d: %v", label, i, r)
		}
		if i > 0 && r[0] != ranges[i-1][1] {
			t.Fatalf("%s: gap/overlap at range %d: %v after %v", label, i, r, ranges[i-1])
		}
		if i > 0 && r[0]%64 != 0 {
			t.Fatalf("%s: boundary %d not word-aligned", label, r[0])
		}
	}
	if last := ranges[len(ranges)-1][1]; last != n {
		t.Fatalf("%s: ranges end at %d, want %d", label, last, n)
	}
}

// TestShardRangesEdges enumerates the boundary geometries without a
// filter (every row survives): sub-word tables, exact word multiples,
// one row over, fewer segments than shards, and more shards than units.
func TestShardRangesEdges(t *testing.T) {
	const segRows = 64 // MinSegmentBits geometry
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097} {
		for _, nshards := range []int{1, 4, 16} {
			ranges := shardRanges(n, segRows, nshards, nil)
			checkRanges(t, fmt.Sprintf("shardRanges(n=%d, shards=%d)", n, nshards), ranges, n, nshards)
		}
	}
	// Larger segment geometry: fewer segments than shards subdivides
	// segments on word boundaries, and a nil filter splits exactly like
	// an all-ones one.
	for _, n := range []int{100, 65536, 65537, 200000} {
		for _, nshards := range []int{1, 4, 16} {
			ranges := shardRanges(n, 65536, nshards, nil)
			checkRanges(t, fmt.Sprintf("shardRanges(n=%d, seg=64Ki, shards=%d)", n, nshards), ranges, n, nshards)
			ones := bitset.New(n)
			ones.Fill()
			if got := shardRanges(n, 65536, nshards, ones); fmt.Sprint(got) != fmt.Sprint(ranges) {
				t.Fatalf("n=%d shards=%d: nil filter split %v, all-ones split %v", n, nshards, ranges, got)
			}
		}
	}
}

// TestShardRangesFilterShapes drives the popcount-balanced split
// through the same geometry grid under several filter shapes —
// all-zero (every segment zone-skipped), all-ones, a single surviving
// segment, a single surviving word, and random — checking the
// structural invariants plus the balance property the split exists
// for: when all survivors sit in one hot segment, the split still
// produces more than one range (no degenerate one-busy-shard scan).
func TestShardRangesFilterShapes(t *testing.T) {
	const segRows = 64
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		name string
		fill func(b *bitset.Bitset, n int)
	}{
		{"zero", func(b *bitset.Bitset, n int) {}},
		{"ones", func(b *bitset.Bitset, n int) {
			for r := 0; r < n; r++ {
				b.Set(r)
			}
		}},
		{"firstseg", func(b *bitset.Bitset, n int) {
			for r := 0; r < n && r < segRows; r++ {
				b.Set(r)
			}
		}},
		{"lastword", func(b *bitset.Bitset, n int) {
			for r := n - n%64; r < n; r++ {
				b.Set(r)
			}
			if n%64 == 0 && n > 0 {
				b.Set(n - 1)
			}
		}},
		{"random", func(b *bitset.Bitset, n int) {
			for r := 0; r < n; r++ {
				if rng.Intn(3) == 0 {
					b.Set(r)
				}
			}
		}},
	}
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097} {
		for _, nshards := range []int{1, 4, 16} {
			for _, shape := range shapes {
				f := bitset.New(n)
				shape.fill(f, n)
				label := fmt.Sprintf("adaptive(n=%d, shards=%d, %s)", n, nshards, shape.name)
				ranges := shardRanges(n, segRows, nshards, f)
				checkRanges(t, label, ranges, n, nshards)
			}
		}
	}

	// The motivating case: 16 multi-word segments, all zone-skipped but
	// one. The whole-segment split would put every surviving row in one
	// shard; the adaptive split must subdivide the hot segment on word
	// boundaries. (At the 64-row minimum geometry a segment IS one word
	// — nothing finer exists — so this case uses 256-row segments.)
	const hotSegRows = 256
	n := 16 * hotSegRows
	f := bitset.New(n)
	for r := 5 * hotSegRows; r < 6*hotSegRows; r++ {
		f.Set(r)
	}
	ranges := shardRanges(n, hotSegRows, 4, f)
	checkRanges(t, "one-hot-segment", ranges, n, 4)
	if len(ranges) < 2 {
		t.Fatalf("one surviving segment not subdivided: %v", ranges)
	}
	// Count survivors per range: no range may hold them all.
	words := f.Words()
	for i, r := range ranges {
		pop := bitset.CountWords(words[r[0]/64 : (r[1]+63)/64])
		if pop == hotSegRows {
			t.Fatalf("range %d %v still holds every surviving row: %v", i, r, ranges)
		}
	}

	// All segments skipped: a single range, nothing to balance.
	empty := bitset.New(n)
	ranges = shardRanges(n, segRows, 4, empty)
	if len(ranges) != 1 || ranges[0] != [2]int{0, n} {
		t.Fatalf("all-skipped split = %v, want one full range", ranges)
	}
}
