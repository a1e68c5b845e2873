package agg

import "math/bits"

// FoldMasked folds one segment's float chunk into an aggregate under a
// filter mask: for every set bit j of mask (within [0, len(vals)) and
// not NULL per the null bitmap), vals[j] is added in ascending row
// order. It is the batch kernel behind the mask-guarded global
// aggregation path — the per-word effective mask (filter &^ null) is
// computed once, and each word dispatches on its density:
//
//   - sparse words walk set bits via TrailingZeros64, paying per
//     surviving row;
//   - dense words (popcount >= denseCutover) scan all 64 lanes with a
//     shifting bit test, which the hardware predicts near-perfectly and
//     amortizes better than find-first-set once most lanes survive.
//
// Ascending row order is part of the contract: float accumulation is
// order-sensitive in the last bit, and the scalar reference folds rows
// in ascending order too.
//
// mask and null are word bitmaps over the chunk's rows (word j covers
// rows [64j, 64j+64)); null may be nil when the chunk has no NULL
// bitmap. Returns the number of values folded.
func FoldMasked(fa Func, vals []float64, null, mask []uint64) int {
	folded := 0
	for wi := 0; wi*64 < len(vals); wi++ {
		w := uint64(0)
		if wi < len(mask) {
			w = mask[wi]
		}
		if null != nil && wi < len(null) {
			w &^= null[wi]
		}
		if w == 0 {
			continue
		}
		base := wi * 64
		if lanes := len(vals) - base; lanes < 64 {
			w &= (1 << uint(lanes)) - 1
			if w == 0 {
				continue
			}
		}
		if bits.OnesCount64(w) >= denseCutover {
			for lane, bit := 0, uint64(1); lane < 64; lane, bit = lane+1, bit<<1 {
				if w&bit != 0 {
					fa.AddFloat(vals[base+lane])
					folded++
				}
			}
			continue
		}
		for w != 0 {
			lane := bits.TrailingZeros64(w)
			fa.AddFloat(vals[base+lane])
			folded++
			w &= w - 1
		}
	}
	return folded
}

// denseCutover is the per-word popcount at which FoldMasked switches
// from set-bit iteration to the dense 64-lane scan. At half density the
// find-first-set loop's data-dependent updates cost more than testing
// every lane; measured crossover sits near 32 on current amd64/arm64.
const denseCutover = 32
