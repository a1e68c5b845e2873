package predicate

import (
	"math"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Index evaluates predicates against one table column-at-a-time. Each
// clause is evaluated once over the whole table into a bitset mask and
// cached; a predicate match is then just the AND of its clause masks
// (and an optional subset mask). Candidate predicates share clauses
// heavily — tree paths reuse the same attribute thresholds, and the
// ranker's pruning re-scores one-clause-removed variants — so the cache
// hit rate is high and steady-state matching allocates nothing.
//
// Masks are stored the way the engine stores rows: as per-segment word
// arrays, each extended independently from the matching column chunk.
// Appends extend only the tail segment's chunk (suffix decode, prefix
// bits immutable); retention rebases the index by dropping whole head
// chunks — no mask is ever rebuilt or shifted, because segment
// boundaries are bitset-word-aligned (engine.MinSegmentBits).
// Callers receive immutable flat snapshots stamped by concatenating
// the chunk words (bitset.ConcatWords), at exactly the requested
// length, so queries running against an older same-base table version
// keep masks of their length even while newer versions extend the
// canonical chunks.
//
// Evaluation semantics are bit-for-bit identical to MatchesRow: NULL
// never matches, comparisons follow engine.Compare (numeric coercion
// across int/float/bool/time, string ordering for strings, incomparable
// types never match, NULL clause values compare below everything, NaN
// compares equal to everything), and a LIKE clause follows
// expr.LikeMatch.
type Index struct {
	mu sync.RWMutex
	// t is the newest table version the index has been synced to; suffix
	// decodes read from it (its rows cover every requested length at the
	// current base).
	t *engine.Table
	// clauses caches canonical match masks keyed by the clause value
	// itself (Clause is comparable), so cache hits allocate nothing.
	clauses map[Clause]*maskEntry
}

// NonNull is the clause every non-NULL row of col matches, and no other:
// engine.Compare places a NULL clause value below everything, so `col !=
// NULL` is TRUE exactly there. Its mask — the complement half the
// executor's 3VL filter lowering needs to turn "comparison is FALSE"
// into a mask — is cached, extended and counted like any other clause's.
func NonNull(col string) Clause { return Clause{Col: col, Op: OpNeq, Val: engine.Null} }

// maskEntry is one mask's canonical chunked state: chunks[k] covers the
// current window's segment k, all chunks before the last fully built.
type maskEntry struct {
	chunks []*maskChunk
	snap   *bitset.Bitset
	// snapCount caches snap's popcount (valid iff snapCounted). It is
	// the selectivity estimate the executor's greedy clause ordering
	// reads, cached per (base, length) stamp: any extension or rebase
	// clears snap, and re-stamping a snap resets the count with it.
	snapCount   int
	snapCounted bool
}

// countSnap returns the cached popcount of b when b is the entry's
// current snap, computing and caching it on first request. Caller
// holds ix.mu (write).
func (e *maskEntry) countSnap(b *bitset.Bitset) int {
	if e.snap != b {
		return b.Count()
	}
	if !e.snapCounted {
		e.snapCount = b.Count()
		e.snapCounted = true
	}
	return e.snapCount
}

// maskChunk is one segment's worth of mask words.
type maskChunk struct {
	words []uint64
	built int // rows decoded within this segment
}

// built returns the contiguous row count the entry covers.
func (e *maskEntry) built(segRows int) int {
	if len(e.chunks) == 0 {
		return 0
	}
	return (len(e.chunks)-1)*segRows + e.chunks[len(e.chunks)-1].built
}

// NewIndex returns an index over t.
func NewIndex(t *engine.Table) *Index {
	return &Index{t: t, clauses: make(map[Clause]*maskEntry)}
}

// sharedIndexKey keys the table family's shared index in the engine's
// aux cache.
type sharedIndexKey struct{}

// Shared returns the table family's shared index, creating it on first
// request through the engine's aux cache. The cache calls the index's
// SyncRows, so requesting it through a grown copy-on-write
// version rebases it: cached clause masks then extend by decoding only
// the appended suffix (or drop whole head chunks after retention).
//
// The shared index lives as long as the table family and never evicts,
// so it is only for BOUNDED clause vocabularies — user-typed statement
// text: WHERE clauses (the executor's filter lowering) and the
// /api/debug examples condition, which core.ExamplesWhere routes through
// the same lowering (exec.FilterRows). Analysis passes whose
// clause thresholds are data-dependent and churn per run (the ranker's
// candidate scoring) must own a NewIndex scoped to their own lifetime
// instead, or every Debug pass would permanently grow this cache.
func Shared(t *engine.Table) *Index {
	return t.AuxLoadOrStore(sharedIndexKey{}, func() any {
		return NewIndex(t)
	}).(*Index)
}

// NumClauses reports how many clause masks the index currently caches
// (capacity accounting for carried indexes).
func (ix *Index) NumClauses() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.clauses)
}

// Table returns the newest indexed table version.
func (ix *Index) Table() *engine.Table {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.t
}

// SyncRows is the hook the engine's aux cache calls with the requesting
// version (Table.AuxLoadOrStore): it rebases the index onto t
// when t is a newer version of the indexed table family — longer, or
// equal-length with a larger retention base. Appends extend cached
// masks lazily on their next request; retention drops whole head
// chunks eagerly (the dropped words are exactly the dropped segments).
func (ix *Index) SyncRows(t *engine.Table) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	newer := t.Version() > ix.t.Version() ||
		(t.Version() == ix.t.Version() && t.Base() > ix.t.Base())
	if !newer {
		return
	}
	dropSegs := (t.Base() - ix.t.Base()) >> t.SegmentBits()
	ix.t = t
	if dropSegs <= 0 {
		return
	}
	for _, e := range ix.clauses {
		e.dropHead(dropSegs)
	}
}

func (e *maskEntry) dropHead(segs int) {
	if segs >= len(e.chunks) {
		e.chunks = nil
	} else {
		e.chunks = e.chunks[segs:]
	}
	e.snap = nil
}

// ClauseBits returns the match mask of one clause at the newest synced
// length. The returned bitset is shared and read-only.
func (ix *Index) ClauseBits(c Clause) *bitset.Bitset {
	return ix.ClauseBitsAt(c, ix.Table().NumRows())
}

// ClauseBitsAt returns the match mask of one clause over the first n
// rows of the current base window — the form queries use so a statement
// executing against an older same-base table version gets masks of
// exactly its length, even while newer versions have already extended
// the canonical bits. The returned bitset is shared and read-only.
func (ix *Index) ClauseBitsAt(c Clause, n int) *bitset.Bitset {
	b, _ := ix.ClauseBitsAtBase(c, -1, n)
	return b
}

// ClauseBitsAtBase is ClauseBitsAt with a base check: it returns
// ok=false (and a nil mask) when base >= 0 and the index's window does
// not start at base — the caller's table version predates a retention
// pass and the head chunks its mask would need are gone. Callers then
// fall back to per-row evaluation.
func (ix *Index) ClauseBitsAtBase(c Clause, base, n int) (*bitset.Bitset, bool) {
	if c.Val.T == engine.TFloat && math.IsNaN(c.Val.F) {
		// NaN keys never hit a map; build uncached rather than leak an
		// entry per call.
		e := &maskEntry{}
		ix.mu.Lock()
		defer ix.mu.Unlock()
		if base >= 0 && ix.t.Base() != base {
			return nil, false
		}
		ix.extendClause(e, c, n)
		return e.stamp(n, ix.t), true
	}
	ix.mu.RLock()
	if base >= 0 && ix.t.Base() != base {
		ix.mu.RUnlock()
		return nil, false
	}
	e, ok := ix.clauses[c]
	if ok && e.built(ix.t.SegRows()) >= n {
		if s := e.snap; s != nil && s.Len() == n {
			ix.mu.RUnlock()
			return s, true
		}
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if base >= 0 && ix.t.Base() != base {
		return nil, false
	}
	e, ok = ix.clauses[c]
	if !ok {
		e = &maskEntry{}
		ix.clauses[c] = e
	}
	ix.extendClause(e, c, n)
	return e.snapshot(n, ix.t), true
}

// ClauseCountAtBase returns the popcount of clause c's match mask over
// the first n rows at base — the statistics-free selectivity estimate
// the executor's greedy clause ordering sorts by. The count is cached
// alongside the mask's (base, length) snapshot stamp, so steady-state
// calls cost a map probe; any mask extension or retention rebase
// invalidates it with the stamp. ok is false under the same
// base-superseded condition as ClauseBitsAtBase.
func (ix *Index) ClauseCountAtBase(c Clause, base, n int) (int, bool) {
	b, ok := ix.ClauseBitsAtBase(c, base, n)
	if !ok {
		return 0, false
	}
	if c.Val.T == engine.TFloat && math.IsNaN(c.Val.F) {
		return b.Count(), true // NaN clauses are built uncached; count likewise
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.clauses[c]; ok {
		return e.countSnap(b), true
	}
	return b.Count(), true
}

// snapshot stamps an immutable length-n bitset by concatenating the
// chunk words: the newest length is cached, older lengths (in-flight
// queries against a superseded same-base version) are copied on
// demand. The copy is n/64 words — bits below the built frontier never
// change, so the chunk memcpys plus a ghost-bit trim are all a shorter
// view needs.
func (e *maskEntry) snapshot(n int, t *engine.Table) *bitset.Bitset {
	if s := e.snap; s != nil && s.Len() == n {
		return s
	}
	b := e.stamp(n, t)
	if n == e.built(t.SegRows()) {
		e.snap = b
		e.snapCounted = false
	}
	return b
}

func (e *maskEntry) stamp(n int, t *engine.Table) *bitset.Bitset {
	segWords := t.SegRows() >> 6
	blocks := make([][]uint64, len(e.chunks))
	for i, ch := range e.chunks {
		blocks[i] = ch.words
	}
	return bitset.ConcatWords(n, segWords, blocks)
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

// forEachSegSpan walks the per-segment row spans the entry must decode
// to cover n rows: for each segment k it hands the chunk plus the
// [lo, hi) row range (segment-local) still missing. Chunks are
// allocated as needed. Caller holds ix.mu.
func (ix *Index) forEachSegSpan(e *maskEntry, n int, fn func(k int, ch *maskChunk, lo, hi int)) {
	segRows := ix.t.SegRows()
	segWords := segRows >> 6
	for start := 0; start < n; start += segRows {
		k := start / segRows
		hi := n - start
		if hi > segRows {
			hi = segRows
		}
		for len(e.chunks) <= k {
			e.chunks = append(e.chunks, &maskChunk{words: make([]uint64, segWords)})
		}
		ch := e.chunks[k]
		if ch.built >= hi {
			continue
		}
		fn(k, ch, ch.built, hi)
		ch.built = hi
		e.snap = nil
	}
}

// extendClause decodes the missing rows of clause c's mask up to n.
// Caller holds ix.mu.
func (ix *Index) extendClause(e *maskEntry, c Clause, n int) {
	ci := ix.t.Schema().ColIndex(c.Col)
	if ci < 0 {
		// Unknown column matches nothing, but the chunks must still
		// cover n so built() reflects the decoded length.
		ix.forEachSegSpan(e, n, func(int, *maskChunk, int, int) {})
		return
	}
	colType := ix.t.Schema()[ci].Type

	// NULL clause value: engine.Compare places NULL below every non-NULL
	// value, so every non-NULL row compares as +1.
	if c.Val.IsNull() {
		if opMatchesCmp(c.Op, 1) {
			ix.extendNonNull(e, ci, n)
		} else {
			ix.forEachSegSpan(e, n, func(int, *maskChunk, int, int) {})
		}
		return
	}

	switch {
	case colType.IsNumeric() && c.Val.T.IsNumeric():
		ix.extendNumeric(e, ci, c, n)
	case colType == engine.TString && c.Val.T == engine.TString:
		ix.extendString(e, ci, c, n)
	default:
		// Incomparable column/value types: engine.Compare errors, the
		// clause matches nothing.
		ix.forEachSegSpan(e, n, func(int, *maskChunk, int, int) {})
	}
}

// extendNonNull sets every missing non-NULL row of column ci up to n.
// Out-of-core segments answer from their zone maps when the NULL count
// is decisive, and otherwise scan under a pin.
func (ix *Index) extendNonNull(e *maskEntry, ci, n int) {
	r := ix.t.NewColReader(ci)
	defer r.Close()
	numeric := ix.t.Schema()[ci].Type.IsNumeric() // every column is numeric or a string
	ix.forEachSegSpan(e, n, func(k int, ch *maskChunk, lo, hi int) {
		if z, ok := ix.segZone(k, ci, lo, hi); ok {
			switch zoneNonNullVerdict(z) {
			case zoneNone:
				return
			case zoneAll:
				fillRange(ch.words, lo, hi)
				return
			}
		}
		if numeric {
			// Word-level Fill+AndNot over the segment span: ~64x fewer
			// operations than per-bit sets on a full-segment build.
			_, null := r.Floats(k)
			orRangeAndNot(ch.words, lo, hi, null)
			return
		}
		codes := r.Codes(k)
		for i := lo; i < hi; i++ {
			if codes[i] >= 0 {
				ch.words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	})
}

// orRangeAndNot sets bits [lo, hi) of words to the complement of not's
// corresponding bits, word-at-a-time.
func orRangeAndNot(words []uint64, lo, hi int, not []uint64) {
	loWord, hiWord := lo>>6, (hi-1)>>6
	for wi := loWord; wi <= hiWord; wi++ {
		m := ^uint64(0)
		if wi == loWord {
			m &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hiWord {
			if rem := hi - wi*64; rem < 64 {
				m &= 1<<uint(rem) - 1
			}
		}
		words[wi] |= m &^ not[wi]
	}
}

// extendNumeric evaluates a numeric clause against the missing rows of
// the float chunks. The comparisons are written so NaN values yield
// cmp==0 (both f<cv and f>cv false), matching engine.Compare's behavior
// exactly.
func (ix *Index) extendNumeric(e *maskEntry, ci int, c Clause, n int) {
	cv := c.Val.Float()
	var match func(f float64) bool
	switch c.Op {
	case OpEq:
		match = func(f float64) bool { return !(f < cv) && !(f > cv) }
	case OpNeq:
		match = func(f float64) bool { return f < cv || f > cv }
	case OpLe:
		match = func(f float64) bool { return !(f > cv) }
	case OpGe:
		match = func(f float64) bool { return !(f < cv) }
	case OpLt:
		match = func(f float64) bool { return f < cv }
	case OpGt:
		match = func(f float64) bool { return f > cv }
	default:
		return
	}
	r := ix.t.NewColReader(ci)
	defer r.Close()
	ix.forEachSegSpan(e, n, func(k int, ch *maskChunk, lo, hi int) {
		if z, ok := ix.segZone(k, ci, lo, hi); ok {
			switch zoneNumericVerdict(z, c.Op, cv) {
			case zoneNone:
				return // provably no match: chunk stays zero, no fault
			case zoneAll:
				// Every row (incl. NaN, excl. none — NullCount is 0)
				// matches: fill without faulting.
				fillRange(ch.words, lo, hi)
				return
			}
		}
		vals, null := r.Floats(k)
		for i := lo; i < hi; i++ {
			if match(vals[i]) && null[i>>6]&(1<<(uint(i)&63)) == 0 {
				ch.words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	})
}

// matchString is a string clause's verdict on one non-NULL value of its
// string column: a comparison, or a LIKE pattern match.
func (c Clause) matchString(s string) bool {
	if c.Op == OpLike {
		return expr.LikeMatch(s, c.Val.S)
	}
	return opMatchesCmp(c.Op, strings.Compare(s, c.Val.S))
}

// extendString evaluates a string clause against the missing rows of
// the dictionary codes: the verdict is computed once per distinct value
// — the whole dictionary, so codes an append added since the last
// extension get theirs — then fans out by code.
func (ix *Index) extendString(e *maskEntry, ci int, c Clause, n int) {
	values := ix.t.Dict(ci).Values()
	verdict := make([]bool, len(values))
	eqCode := -1 // the single matching code for OpEq (dict values are distinct)
	for code, s := range values {
		verdict[code] = c.matchString(s)
		if verdict[code] && c.Op == OpEq {
			eqCode = code
		}
	}
	r := ix.t.NewColReader(ci)
	defer r.Close()
	ix.forEachSegSpan(e, n, func(k int, ch *maskChunk, lo, hi int) {
		if c.Op == OpEq {
			if z, ok := ix.segZone(k, ci, lo, hi); ok && zoneEqStringVerdict(z, eqCode) == zoneNone {
				return // code provably absent from the segment: no fault
			}
		}
		codes := r.Codes(k)
		for i := lo; i < hi; i++ {
			if code := codes[i]; code >= 0 && verdict[code] {
				ch.words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	})
}

// MatchInto writes the rows matching p (within subset, or the whole
// table when subset is nil) into dst and returns it. dst's length picks
// the table version: every clause mask is stamped to it. The TRUE
// predicate matches everything in subset.
func (ix *Index) MatchInto(p Predicate, subset *bitset.Bitset, dst *bitset.Bitset) *bitset.Bitset {
	if subset != nil {
		dst.CopyFrom(subset)
	} else {
		dst.Fill()
	}
	for _, c := range p.Clauses {
		dst.And(ix.ClauseBitsAt(c, dst.Len()))
	}
	return dst
}

// MatchingBitset returns the rows of the indexed table satisfying p
// (restricted to subset when non-nil) as a fresh bitset — the vectorized
// counterpart of Predicate.MatchingRows.
func (p Predicate) MatchingBitset(ix *Index, subset *bitset.Bitset) *bitset.Bitset {
	return ix.MatchInto(p, subset, bitset.New(ix.Table().NumRows()))
}
