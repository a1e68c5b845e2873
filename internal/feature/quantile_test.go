package feature

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedThresholds is quantileThresholds as it was before selection: a
// full sort of the finite values, then the cuts read off by index. The one
// pinned difference: a cut at zero is +0 (which zero a sort leaves at a
// rank was pdqsort's choice).
func sortedThresholds(floats []float64) []float64 {
	var vals []float64
	for _, f := range floats {
		if finite(f) {
			vals = append(vals, f)
		}
	}
	sort.Float64s(vals)
	var ths []float64
	prev := math.Inf(-1)
	for q := 1; q <= numThresholds; q++ {
		if cut := vals[q*(len(vals)-1)/(numThresholds+1)]; cut > prev {
			if cut == 0 {
				cut = 0
			}
			ths = append(ths, cut)
			prev = cut
		}
	}
	return ths
}

// quantileColumn draws a column of n values in one of the shapes a
// selection can get wrong: random, sorted, reversed, constant, a few
// distinct values, a sawtooth, an organ pipe, or raw float bits. With
// specials set, ±0, NaN and ±Inf are mixed in.
func quantileColumn(shape uint8, n int, seed int64, raw []byte) []float64 {
	rng := rand.New(rand.NewSource(seed))
	col := make([]float64, n)
	for i := range col {
		switch shape % 8 {
		case 0:
			col[i] = rng.NormFloat64() * 100
		case 1:
			col[i] = float64(i) * 0.5
		case 2:
			col[i] = float64(n - i)
		case 3:
			col[i] = 7
		case 4:
			col[i] = float64(rng.Intn(3))
		case 5:
			col[i] = float64(i % 17)
		case 6:
			col[i] = float64(min(i, n-1-i))
		default:
			if j := 8 * i % max(len(raw)-7, 1); len(raw) >= 8 {
				col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
			}
		}
	}
	if shape&8 != 0 {
		specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := range col {
			if rng.Intn(5) == 0 {
				col[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return col
}

// FuzzQuantileThresholds pins the selection to the sort it replaced: the
// same cuts, bit for bit, on every column shape, and selectRanks leaves
// the value a sort would at every rank it was asked for, sorted input or
// not.
func FuzzQuantileThresholds(f *testing.F) {
	for shape := uint8(0); shape < 16; shape++ {
		f.Add(shape, uint16(1000), int64(shape), []byte("0123456789abcdefghij"))
	}
	f.Add(uint8(9), uint16(1), int64(1), []byte{})
	f.Add(uint8(1), uint16(50000), int64(2), []byte{})
	f.Fuzz(func(t *testing.T, shape uint8, n uint16, seed int64, raw []byte) {
		col := quantileColumn(shape, int(n)%20000, seed, raw)
		if !slices.ContainsFunc(col, finite) {
			return // NewSpace keeps no such column
		}
		want := sortedThresholds(col)
		got := quantileThresholds(col)
		if len(got) != len(want) {
			t.Fatalf("shape %d n %d: %d cuts %v, the sort gives %d %v", shape, len(col), len(got), got, len(want), want)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("shape %d n %d: cut %d is %v, the sort gives %v", shape, len(col), k, got[k], want[k])
			}
		}

		var vals []float64
		for _, f := range col {
			if finite(f) {
				vals = append(vals, f+0)
			}
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		rng := rand.New(rand.NewSource(seed))
		ranks := make([]int, 1+rng.Intn(20))
		for i := range ranks {
			ranks[i] = rng.Intn(len(vals))
		}
		slices.Sort(ranks)
		selectRanks(vals, 0, len(vals), ranks, 2*bits.Len(uint(len(vals))))
		for _, r := range ranks {
			if vals[r] != sorted[r] {
				t.Fatalf("shape %d n %d: rank %d holds %v, the sort gives %v", shape, len(col), r, vals[r], sorted[r])
			}
		}
		slices.Sort(vals)
		if !slices.Equal(vals, sorted) {
			t.Fatalf("shape %d n %d: selectRanks is not a permutation", shape, len(col))
		}
	})
}

// BenchmarkQuantileThresholds: the cuts of a sampleCap-row column by
// selection and by the sort it replaced, per column shape.
func BenchmarkQuantileThresholds(b *testing.B) {
	for _, c := range []struct {
		name  string
		shape uint8
	}{{"random", 0}, {"sorted", 1}, {"few-distinct", 4}, {"organ-pipe", 6}} {
		col := quantileColumn(c.shape, sampleCap, 1, nil)
		for name, fn := range map[string]func([]float64) []float64{"select": quantileThresholds, "sort": sortedThresholds} {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn(col)
				}
			})
		}
	}
}
