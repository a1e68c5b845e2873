package agg

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

// maskedChunk builds a chunk of nrows values with the awkward float
// population (NaN, ±0.0, exactly-representable quarters) plus a NULL
// bitmap with the given density.
func maskedChunk(rng *rand.Rand, nrows int, nullDensity float64) (vals []float64, null []uint64) {
	vals = make([]float64, nrows)
	null = make([]uint64, (nrows+63)/64)
	for i := range vals {
		switch {
		case rng.Float64() < 0.1:
			vals[i] = math.NaN()
		case rng.Float64() < 0.08:
			vals[i] = math.Copysign(0, -1)
		default:
			vals[i] = float64(rng.Intn(64)-32) * 0.25
		}
		if rng.Float64() < nullDensity {
			null[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return vals, null
}

// maskAt builds a filter mask over nrows at roughly the given bits per
// word: 0 (empty), 1 (one set bit per word), 32 (alternating — exactly
// the dense cutover), 64 (full).
func maskAt(rng *rand.Rand, nrows, bitsPerWord int) []uint64 {
	words := (nrows + 63) / 64
	mask := make([]uint64, words)
	for w := range mask {
		switch bitsPerWord {
		case 0:
		case 1:
			mask[w] = 1 << uint(rng.Intn(64))
		case 32:
			mask[w] = 0x5555555555555555 << uint(rng.Intn(2))
		case 64:
			mask[w] = ^uint64(0)
		}
	}
	return mask
}

// TestFoldMaskedParity checks FoldMasked against the scalar reference —
// an ascending row loop testing each bit — for every aggregate kind at
// every density, bit-exactly (same adder type, same fold order, so even
// NaN propagation and -0.0 accumulation must agree).
func TestFoldMaskedParity(t *testing.T) {
	names := []string{"count", "sum", "avg", "min", "max", "stddev", "var", "median"}
	lengths := []int{1, 63, 64, 65, 200, 256, 300}
	densities := []int{0, 1, 32, 64}
	rng := rand.New(rand.NewSource(7))
	for _, nrows := range lengths {
		vals, null := maskedChunk(rng, nrows, 0.15)
		for _, d := range densities {
			mask := maskAt(rng, nrows, d)
			for _, name := range names {
				got, _ := New(name)
				ref, _ := New(name)
				folded := FoldMasked(got, vals, null, mask)
				want := 0
				rfa := ref
				for i := 0; i < nrows; i++ {
					if mask[i/64]&(1<<(uint(i)%64)) == 0 {
						continue
					}
					if null[i/64]&(1<<(uint(i)%64)) != 0 {
						continue
					}
					rfa.AddFloat(vals[i])
					want++
				}
				label := fmt.Sprintf("%s nrows=%d density=%d", name, nrows, d)
				if folded != want {
					t.Fatalf("%s: folded %d rows, reference folded %d", label, folded, want)
				}
				gv, rv := got.Result(), ref.Result()
				if !bitIdentical(gv, rv) {
					t.Fatalf("%s: FoldMasked result %v != reference %v", label, gv, rv)
				}
				if got.Count() != ref.Count() {
					t.Fatalf("%s: Count %d != reference %d", label, got.Count(), ref.Count())
				}
			}
			// The fold counts the in-range set filter bits that are not
			// NULL: a popcount of mask &^ null.
			sum, _ := New("sum")
			folded := FoldMasked(sum, vals, null, mask)
			want := 0
			for w, m := range mask {
				hi := min(nrows-w*64, 64)
				want += bits.OnesCount64(m &^ null[w] & (^uint64(0) >> uint(64-hi)))
			}
			if folded != want {
				t.Fatalf("nrows=%d density=%d: FoldMasked folded %d, popcount %d", nrows, d, folded, want)
			}
		}
	}
}

// TestFoldMaskedRandomized hammers the dense/sparse crossover with
// random masks straddling denseCutover, so both inner loops run against
// the same reference within one fold.
func TestFoldMaskedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		nrows := 1 + rng.Intn(400)
		vals, null := maskedChunk(rng, nrows, 0.2)
		mask := make([]uint64, (nrows+63)/64)
		for w := range mask {
			// Mix densities around the cutover: 0, sparse, ~cutover, dense.
			switch rng.Intn(4) {
			case 0:
			case 1:
				for b := 0; b < 1+rng.Intn(4); b++ {
					mask[w] |= 1 << uint(rng.Intn(64))
				}
			case 2:
				mask[w] = rng.Uint64() // ~32 bits on average
			case 3:
				mask[w] = ^uint64(0) &^ (1 << uint(rng.Intn(64)))
			}
		}
		got, _ := New("sum")
		ref, _ := New("sum")
		FoldMasked(got, vals, null, mask)
		rfa := ref
		for i := 0; i < nrows; i++ {
			if mask[i/64]&(1<<(uint(i)%64)) != 0 && null[i/64]&(1<<(uint(i)%64)) == 0 {
				rfa.AddFloat(vals[i])
			}
		}
		if gv, rv := got.Result(), ref.Result(); !bitIdentical(gv, rv) {
			t.Fatalf("iter %d nrows=%d: %v != %v", iter, nrows, gv, rv)
		}
	}
}

// bitIdentical compares aggregate results at the bit level: NaN equals
// NaN, +0.0 differs from -0.0 only if the bits do.
func bitIdentical(a, b engine.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
}

func BenchmarkFoldMasked(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals, null := maskedChunk(rng, 1<<14, 0.1)
	for _, d := range []int{1, 32, 64} {
		mask := maskAt(rng, len(vals), d)
		b.Run(fmt.Sprintf("density=%d", d), func(b *testing.B) {
			sum, _ := New("sum")
			fa := sum
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				FoldMasked(fa, vals, null, mask)
			}
		})
	}
}
