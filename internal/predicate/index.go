package predicate

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Index evaluates predicates against one table family column-at-a-time.
// Each clause is evaluated once over the whole table into a bitset mask
// and cached; a predicate match is then just the AND of its clause masks
// (and an optional subset mask). Candidate predicates share clauses
// heavily — tree paths reuse the same attribute thresholds, and the
// ranker's pruning re-scores one-clause-removed variants — so the cache
// hit rate is high and steady-state matching allocates nothing.
//
// Every request names the table version it reads (Mask, MatchInto), and
// the answer is that version's mask, whatever the index has seen since.
// A cached mask is one flat bitset over the first n rows of the newest
// base window the index has been asked about, and like a table
// version's chunks it is never written once handed out:
//   - a newer version rebases the index: retention re-slices each mask
//     past the dropped head words (segment boundaries are
//     bitset-word-aligned, engine.MinSegmentBits, so no mask is rebuilt
//     or shifted), and appends extend a mask on its next request into a
//     longer copy — the published words, then the appended rows decoded
//     from the version's column chunks;
//   - a version at the index's base is served from the cache, an older
//     (shorter) one a copy of its own length's prefix;
//   - a version from before a retention the index has already seen gets
//     a mask built for it alone and not cached.
//
// The index keeps masks, not statistics. It holds at most maxMasks of
// them and evicts by second chance: a hit sets its entry's reference bit
// (only when clear, so readers write no shared word in the steady
// state), and an insert into a full index sweeps the entries, clearing
// set bits and evicting the first clear one. An insert leaves the bit
// clear, so a mask no later request asks for goes on the next lap. An
// evicted clause rebuilds on its next request.
//
// Evaluation semantics are bit-for-bit identical to MatchesRow: NULL
// never matches, comparisons follow engine.Compare (numeric coercion
// across int/float/bool/time, string ordering for strings, incomparable
// types never match, NULL clause values compare below everything, NaN
// compares equal to everything), and a LIKE clause follows
// expr.LikeMatch.
type Index struct {
	mu sync.RWMutex
	// t is the newest table version the index has served; cached masks
	// are over its base window.
	t *engine.Table
	// clauses maps a clause (Clause is comparable) to its entry, so
	// cache hits allocate nothing; ring holds the same entries in sweep
	// order, hand the next one the sweep examines.
	clauses map[Clause]*maskEntry
	ring    []*maskEntry
	hand    int
}

// maxMasks bounds every Index, at rows/8 bytes a mask. Replaying the
// benchmark's eight scan shapes, 360 statements with seeded literals,
// left 176 distinct clauses in the readings table's shared index, 74 of
// them asked for again by a later statement. The Debug passes that
// score their candidates through the same index add few: one benchmark
// server run inserted 9–10 clauses in all on intel_session and 36 on
// stream_monitor, Debug's candidates included, and evicted none.
const maxMasks = 128

// NonNull is the clause every non-NULL row of col matches, and no other:
// engine.Compare places a NULL clause value below everything, so `col !=
// NULL` is TRUE exactly there. Its mask — the complement half the
// executor's 3VL filter lowering needs to turn "comparison is FALSE"
// into a mask — is cached and extended like any other clause's.
func NonNull(col string) Clause { return Clause{Col: col, Op: OpNeq, Val: engine.Null} }

// maskEntry is one clause's published mask, replaced, never written,
// under ix.mu.
type maskEntry struct {
	c    Clause
	bits *bitset.Bitset
	ref  atomic.Bool // hit since the sweep last passed it
}

// hit marks e referenced; the load keeps a hot entry's word unwritten.
// Caller holds ix.mu.
func (e *maskEntry) hit() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// NewIndex returns an index over t's table family.
func NewIndex(t *engine.Table) *Index {
	return &Index{t: t, clauses: make(map[Clause]*maskEntry)}
}

// sharedIndexKey keys the table family's shared index in the engine's
// aux cache.
type sharedIndexKey struct{}

// Shared returns the table family's one index, creating it on first
// request through the engine's aux cache. Every clause mask of the
// family is served from it: the executor's WHERE lowering, the
// /api/debug examples condition (core.ExamplesWhere routes it through
// the same lowering, exec.FilterRows), the ranker's candidate scoring
// and a clean's WHERE NOT re-run, whose cut points are the ones the
// ranker just scored. It lives as long as the table family, bounded
// like any Index at maxMasks masks.
func Shared(t *engine.Table) *Index {
	return t.AuxLoadOrStore(sharedIndexKey{}, func() any {
		return NewIndex(t)
	}).(*Index)
}

// ClauseBits returns the match mask of one clause over the newest
// version the index has served. The returned bitset is shared and
// read-only.
func (ix *Index) ClauseBits(c Clause) *bitset.Bitset {
	ix.mu.RLock()
	t := ix.t
	ix.mu.RUnlock()
	return ix.Mask(t, c)
}

// Mask returns the match mask of one clause over table version t's rows,
// which must be a version of the index's family. A newer t rebases the
// index first; a t from before a retention the index has seen gets a
// mask built for it and not cached, as does a NaN literal (a key no map
// lookup finds). The returned bitset is shared and read-only.
func (ix *Index) Mask(t *engine.Table, c Clause) *bitset.Bitset {
	if b := ix.cached(t, c); b != nil {
		return b
	}
	return build(t, bitset.New(0), c, t.NumRows())
}

// cached serves c's mask over t from the cache, extending or inserting
// it, or returns nil when t predates the index's base or c's literal is
// NaN.
func (ix *Index) cached(t *engine.Table, c Clause) *bitset.Bitset {
	n := t.NumRows()
	ix.mu.RLock()
	if t.Base() < ix.t.Base() {
		ix.mu.RUnlock()
		return nil
	}
	if e := ix.clauses[c]; e != nil && t.Base() == ix.t.Base() {
		e.hit()
		if b := e.bits; b.Len() >= n {
			ix.mu.RUnlock()
			return prefix(b, n)
		}
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.rebase(t)
	if t.Base() != ix.t.Base() || (c.Val.T == engine.TFloat && math.IsNaN(c.Val.F)) {
		return nil
	}
	e := ix.clauses[c]
	if e == nil {
		e = ix.insert(c)
	} else {
		e.hit()
	}
	if e.bits.Len() < n {
		e.bits = build(t, e.bits, c, n)
	}
	return prefix(e.bits, n)
}

// rebase moves the index onto t when t is a newer version of its family
// — longer, or equal-length with a larger retention base. Retention
// re-slices each mask past the dropped rows (whole segments, so whole
// words), writing no word a reader may hold. Caller holds ix.mu (write).
func (ix *Index) rebase(t *engine.Table) {
	newer := t.Version() > ix.t.Version() ||
		(t.Version() == ix.t.Version() && t.Base() > ix.t.Base())
	if !newer {
		return
	}
	if drop := t.Base() - ix.t.Base(); drop > 0 {
		for _, e := range ix.clauses {
			e.bits = e.bits.SkipWords(drop >> 6)
		}
	}
	ix.t = t
}

// prefix returns the first n rows of a cached mask: the mask itself at
// its own length, else a copy (an older version's request).
func prefix(b *bitset.Bitset, n int) *bitset.Bitset {
	if b.Len() == n {
		return b
	}
	return bitset.SnapshotWords(n, b.Words())
}

// insert adds an empty entry for c. A full index first evicts by second
// chance: the sweep clears each set reference bit it passes and evicts
// the first entry whose bit was clear — at most one lap, as no reader
// runs under the write lock. Caller holds ix.mu (write).
func (ix *Index) insert(c Clause) *maskEntry {
	e := &maskEntry{c: c, bits: bitset.New(0)}
	if len(ix.ring) < maxMasks {
		ix.ring = append(ix.ring, e)
	} else {
		for ix.ring[ix.hand].ref.Swap(false) {
			ix.hand = (ix.hand + 1) % maxMasks
		}
		delete(ix.clauses, ix.ring[ix.hand].c)
		ix.ring[ix.hand] = e
		ix.hand = (ix.hand + 1) % maxMasks
	}
	ix.clauses[c] = e
	return e
}

// opMatchesCmp reports whether comparison outcome cmp satisfies op —
// the single op dispatch shared by Clause.Matches and the vectorized
// clause-mask builders.
func opMatchesCmp(op Op, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNeq:
		return cmp != 0
	case OpLe:
		return cmp <= 0
	case OpGe:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	case OpGt:
		return cmp > 0
	}
	return false
}

// build returns clause c's mask over the first n rows of version t: a
// fresh copy of old's words with rows [old.Len(), n) decoded from t's
// chunks into it. old, which readers may hold, is not written.
func build(t *engine.Table, old *bitset.Bitset, c Clause, n int) *bitset.Bitset {
	words := make([]uint64, (n+63)>>6)
	copy(words, old.Words())
	if ci := t.Schema().ColIndex(c.Col); ci >= 0 {
		// An unknown column matches nothing.
		decode(t, words, ci, c, old.Len(), n)
	}
	return bitset.FromWords(n, words)
}

// decode sets the rows in [from, n) of column ci that match c.
func decode(t *engine.Table, words []uint64, ci int, c Clause, from, n int) {
	colType := t.Schema()[ci].Type
	switch {
	case c.Val.IsNull():
		// engine.Compare places NULL below every non-NULL value, so
		// every non-NULL row compares as +1.
		if opMatchesCmp(c.Op, 1) {
			decodeNonNull(t, words, ci, from, n)
		}
	case colType.IsNumeric() && c.Val.T.IsNumeric():
		decodeNumeric(t, words, ci, c, from, n)
	case colType == engine.TString && c.Val.T == engine.TString:
		decodeString(t, words, ci, c, from, n)
	}
	// Otherwise the types are incomparable: engine.Compare errors, the
	// clause matches nothing.
}

// forEachSegSpan walks rows [from, n) a segment at a time, handing fn
// segment k, the mask words from the segment's first row on, and the
// segment-local row span [lo, hi) to decode.
func forEachSegSpan(t *engine.Table, words []uint64, from, n int, fn func(k int, seg []uint64, lo, hi int)) {
	segRows := t.SegRows()
	for k := from / segRows; k*segRows < n; k++ {
		start := k * segRows
		fn(k, words[start>>6:], max(from-start, 0), min(n-start, segRows))
	}
}

// orSpan ORs word(wi) into each word wi of seg that rows [lo, hi) touch,
// masked to the span.
func orSpan(seg []uint64, lo, hi int, word func(wi int) uint64) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		m := word(wi)
		if wi == lo>>6 {
			m &= ^uint64(0) << (uint(lo) & 63)
		}
		if rem := hi - wi<<6; rem < 64 {
			m &= 1<<uint(rem) - 1
		}
		seg[wi] |= m
	}
}

// zoneSpan settles a whole-segment span from segment k's zone map when
// verdict is decisive: a provably-none segment leaves its words zero and
// a provably-all one fills them, neither faulting the chunk. It reports
// whether the span still needs a scan.
func zoneSpan(t *engine.Table, seg []uint64, k, ci, lo, hi int, verdict func(engine.ZoneInfo) zoneVerdict) bool {
	z, ok := segZone(t, k, ci, lo, hi)
	if !ok {
		return true
	}
	switch verdict(z) {
	case zoneNone:
		return false
	case zoneAll:
		orSpan(seg, lo, hi, func(int) uint64 { return ^uint64(0) })
		return false
	}
	return true
}

// decodeNonNull sets the non-NULL rows of column ci in [from, n).
func decodeNonNull(t *engine.Table, words []uint64, ci, from, n int) {
	r := t.NewColReader(ci)
	defer r.Close()
	numeric := t.Schema()[ci].Type.IsNumeric() // every column is numeric or a string
	forEachSegSpan(t, words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !zoneSpan(t, seg, k, ci, lo, hi, zoneNonNullVerdict) {
			return
		}
		if numeric {
			_, null := r.Floats(k)
			orSpan(seg, lo, hi, func(wi int) uint64 { return ^null[wi] })
			return
		}
		codes := r.Codes(k)
		orSpan(seg, lo, hi, func(wi int) uint64 {
			var w uint64
			for j, code := range codes[wi<<6 : min(wi<<6+64, hi)] {
				if code >= 0 {
					w |= 1 << uint(j)
				}
			}
			return w
		})
	})
}

// decodeNumeric evaluates a numeric clause against the float chunks 64
// rows at a time: each word's two comparison masks — cells below and
// above the constant — give every op's word. A NaN on either side sets
// neither bit, so it compares equal, as in engine.Compare.
func decodeNumeric(t *engine.Table, words []uint64, ci int, c Clause, from, n int) {
	if c.Op == OpLike {
		return // LIKE on a numeric column matches nothing
	}
	cv := c.Val.Float()
	r := t.NewColReader(ci)
	defer r.Close()
	verdict := func(z engine.ZoneInfo) zoneVerdict { return zoneNumericVerdict(z, c.Op, cv) }
	forEachSegSpan(t, words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !zoneSpan(t, seg, k, ci, lo, hi, verdict) {
			return
		}
		vals, null := r.Floats(k)
		orSpan(seg, lo, hi, func(wi int) uint64 {
			lt, gt := compareWord(vals[wi<<6:min(wi<<6+64, hi)], cv)
			return opWord(c.Op, lt, gt) &^ null[wi]
		})
	})
}

// compareWord returns the masks of the cells of vals (at most 64) that
// compare below cv and above it, without a branch per cell.
func compareWord(vals []float64, cv float64) (lt, gt uint64) {
	for j := len(vals) - 1; j >= 0; j-- { // cell j's bits shift up to bit j
		f := vals[j]
		lt = lt<<1 | bit(f < cv)
		gt = gt<<1 | bit(f > cv)
	}
	return lt, gt
}

// bit is b as 0 or 1; the compiler emits it without a branch.
func bit(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// opWord is op's match word for a word whose cells compare below the
// constant at lt's bits and above it at gt's.
func opWord(op Op, lt, gt uint64) uint64 {
	switch op {
	case OpEq:
		return ^(lt | gt)
	case OpNeq:
		return lt | gt
	case OpLe:
		return ^gt
	case OpGe:
		return ^lt
	case OpLt:
		return lt
	}
	return gt // OpGt
}

// matchString is a string clause's verdict on one non-NULL value of its
// string column: a comparison, or a LIKE pattern match.
func (c Clause) matchString(s string) bool {
	if c.Op == OpLike {
		return expr.LikeMatch(s, c.Val.S)
	}
	return opMatchesCmp(c.Op, strings.Compare(s, c.Val.S))
}

// decodeString evaluates a string clause against the dictionary codes:
// the verdict is computed once per distinct value — the whole
// dictionary, so codes an append added since the last extension get
// theirs — then fans out by code.
func decodeString(t *engine.Table, words []uint64, ci int, c Clause, from, n int) {
	values := t.Dict(ci).Values()
	verdict := make([]bool, len(values))
	eqCode := -1 // the single matching code for OpEq (dict values are distinct)
	for code, s := range values {
		verdict[code] = c.matchString(s)
		if verdict[code] && c.Op == OpEq {
			eqCode = code
		}
	}
	zone := func(z engine.ZoneInfo) zoneVerdict {
		if c.Op == OpEq {
			return zoneEqStringVerdict(z, eqCode)
		}
		return zoneScan
	}
	r := t.NewColReader(ci)
	defer r.Close()
	forEachSegSpan(t, words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !zoneSpan(t, seg, k, ci, lo, hi, zone) {
			return
		}
		codes := r.Codes(k)
		orSpan(seg, lo, hi, func(wi int) uint64 {
			var w uint64
			for j, code := range codes[wi<<6 : min(wi<<6+64, hi)] {
				if code >= 0 && verdict[code] {
					w |= 1 << uint(j)
				}
			}
			return w
		})
	})
}

// MatchInto writes the rows of version t matching p (within subset, or
// every row when subset is nil) into dst and returns it; dst's length is
// t.NumRows(). The TRUE predicate matches everything in subset.
func (ix *Index) MatchInto(t *engine.Table, p Predicate, subset *bitset.Bitset, dst *bitset.Bitset) *bitset.Bitset {
	if subset != nil {
		dst.CopyFrom(subset)
	} else {
		dst.Fill()
	}
	for _, c := range p.Clauses {
		dst.And(ix.Mask(t, c))
	}
	return dst
}
