package predicate

import "repro/internal/engine"

// Zone-map pruning: before faulting an out-of-core segment's chunk to
// build a clause mask, the index consults the segment's zone map. A
// provably-none segment leaves its mask words zero and a provably-all
// segment fills them, in both cases without touching disk.
// The verdicts must be exact, not heuristic — a mask bit is a promise —
// so the NaN and NULL rules below mirror engine.Compare precisely: NaN
// compares equal to everything (cmp == 0), NULL never matches.

// zoneVerdict is the outcome of consulting a zone map for one clause
// over one whole segment.
type zoneVerdict int

const (
	zoneScan zoneVerdict = iota // undecided: fault and scan
	zoneNone                    // no row matches: leave chunk zero
	zoneAll                     // every row matches: fill chunk
)

// zoneNumericVerdict decides a numeric clause op/cv against z. cv is
// the clause value as float64 (possibly NaN — then every comparison
// below is false and the verdict degrades to zoneScan, conservatively).
func zoneNumericVerdict(z engine.ZoneInfo, op Op, cv float64) zoneVerdict {
	if z.Rows == 0 {
		return zoneScan
	}
	// NaN cells compare equal to everything, so they match exactly when
	// cmp==0 satisfies the op.
	nanMatches := z.NaNCount > 0 && opMatchesCmp(op, 0)
	nanMisses := z.NaNCount > 0 && !opMatchesCmp(op, 0)

	none := !nanMatches
	if none && z.HasRange {
		none = rangeNoneMatch(z.Min, z.Max, op, cv)
	}
	if none {
		return zoneNone
	}

	all := z.NullCount == 0 && !nanMisses
	if all && z.HasRange {
		all = rangeAllMatch(z.Min, z.Max, op, cv)
	}
	if all && !z.HasRange && z.NaNCount == 0 {
		// No finite values and no NaN with NullCount == 0 is an empty
		// segment contradiction; don't trust it.
		all = false
	}
	if all {
		return zoneAll
	}
	return zoneScan
}

// rangeNoneMatch reports that NO finite value in [min, max] can
// satisfy op against cv. All comparisons are false when cv is NaN, so
// a NaN clause value never proves none.
func rangeNoneMatch(min, max float64, op Op, cv float64) bool {
	switch op {
	case OpEq:
		return cv < min || cv > max
	case OpNeq:
		return min == max && min == cv
	case OpLt:
		return min >= cv
	case OpLe:
		return min > cv
	case OpGt:
		return max <= cv
	case OpGe:
		return max < cv
	}
	return false
}

// rangeAllMatch reports that EVERY finite value in [min, max]
// satisfies op against cv.
func rangeAllMatch(min, max float64, op Op, cv float64) bool {
	switch op {
	case OpEq:
		return min == max && min == cv
	case OpNeq:
		return cv < min || cv > max
	case OpLt:
		return max < cv
	case OpLe:
		return max <= cv
	case OpGt:
		return min > cv
	case OpGe:
		return min >= cv
	}
	return false
}

// zoneEqStringVerdict decides a string equality clause against z's
// dictionary-code presence bitmap (bit code%256). The bitmap is an
// over-approximation — a set bit proves nothing, only a CLEAR bit
// proves absence — so the only verdict it can return is zoneNone.
func zoneEqStringVerdict(z engine.ZoneInfo, eqCode int) zoneVerdict {
	if !z.HasPresence || eqCode < 0 {
		return zoneScan
	}
	bit := uint32(eqCode) & 255
	if z.Presence[bit>>6]&(1<<(bit&63)) == 0 {
		return zoneNone
	}
	return zoneScan
}

// zoneNonNullVerdict decides the non-NULL mask for one segment.
func zoneNonNullVerdict(z engine.ZoneInfo) zoneVerdict {
	if z.Rows == 0 {
		return zoneScan
	}
	if z.NullCount == 0 {
		return zoneAll
	}
	if z.NullCount == z.Rows {
		return zoneNone
	}
	return zoneScan
}

// segZone returns segment k's zone map for column ci when it has one
// (only a faultable segment does) AND the span covers the whole segment
// — partial spans must scan (the zone summarizes all rows, the span only
// some).
func segZone(t *engine.Table, k, ci, lo, hi int) (engine.ZoneInfo, bool) {
	if lo != 0 || hi != t.SegRows() {
		return engine.ZoneInfo{}, false
	}
	return t.SegmentZone(k, ci)
}
