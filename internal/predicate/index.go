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

// Index evaluates predicates against one table column-at-a-time. Each
// clause is evaluated once over the whole table into a bitset mask and
// cached; a predicate match is then just the AND of its clause masks
// (and an optional subset mask). Candidate predicates share clauses
// heavily — tree paths reuse the same attribute thresholds, and the
// ranker's pruning re-scores one-clause-removed variants — so the cache
// hit rate is high and steady-state matching allocates nothing.
//
// A cached mask is one flat bitset over the first n rows of the current
// base window, and like a table version's chunks it is never written
// once handed out. Appends extend it into a longer copy: the published
// words, then the appended rows decoded from the matching column chunks.
// Retention re-slices it past the dropped head words — segment
// boundaries are bitset-word-aligned (engine.MinSegmentBits), so no
// mask is ever rebuilt or shifted. A query against an older same-base
// version asks for its own length and gets a copy of that prefix, so it
// keeps masks of its length while newer versions extend them.
//
// The index holds at most maxMasks masks and evicts by second chance:
// a hit sets its entry's reference bit (only when clear, so readers
// write no shared word in the steady state), and an insert into a full
// index sweeps the entries, clearing set bits and evicting the first
// clear one. A statement asks for a mask more than once (its count to
// order the clauses, then its bits), so only a hit after another insert
// counts: the statement that built a mask does not keep it. An evicted
// clause rebuilds on its next request.
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
	// clauses maps a clause (Clause is comparable) to its entry, so
	// cache hits allocate nothing; ring holds the same entries in sweep
	// order, hand the next one the sweep examines.
	clauses map[Clause]*maskEntry
	ring    []*maskEntry
	hand    int
	inserts int // entries inserted so far
}

// maxMasks bounds every Index, at rows/8 bytes a mask. Replaying the
// benchmark's eight scan shapes, 360 statements with seeded literals,
// left 176 masks in the readings table's shared index, 74 of them hit
// by a later statement; a full Debug's own index holds under ten.
const maxMasks = 128

// NonNull is the clause every non-NULL row of col matches, and no other:
// engine.Compare places a NULL clause value below everything, so `col !=
// NULL` is TRUE exactly there. Its mask — the complement half the
// executor's 3VL filter lowering needs to turn "comparison is FALSE"
// into a mask — is cached, extended and counted like any other clause's.
func NonNull(col string) Clause { return Clause{Col: col, Op: OpNeq, Val: engine.Null} }

// maskEntry is one clause's published mask and its popcount — the
// selectivity estimate the executor's greedy clause ordering reads —
// both replaced, never written, under ix.mu.
type maskEntry struct {
	c     Clause
	bits  *bitset.Bitset
	count int
	born  int         // ix.inserts when it was inserted
	ref   atomic.Bool // hit since the sweep last passed it
}

// hit marks e referenced unless nothing was inserted since e was; the
// load keeps a hot entry's word unwritten. Caller holds ix.mu.
func (ix *Index) hit(e *maskEntry) {
	if e.born != ix.inserts && !e.ref.Load() {
		e.ref.Store(true)
	}
}

// publish makes b e's mask. Caller holds ix.mu (write).
func (e *maskEntry) publish(b *bitset.Bitset) {
	e.bits, e.count = b, b.Count()
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
// the appended suffix (or drop whole head words after retention).
//
// The shared index lives as long as the table family, bounded like any
// Index at maxMasks masks. The clause vocabularies that feed it are not
// bounded: user-typed WHERE clauses (the executor's filter lowering),
// the /api/debug examples condition, which core.ExamplesWhere routes
// through the same lowering (exec.FilterRows), and a clean's WHERE NOT
// re-run, whose cut points come from the data. Analysis passes whose
// thresholds churn per run (the ranker's candidate scoring) own a
// NewIndex scoped to their lifetime, so they neither evict the
// statements' masks nor keep theirs past the pass.
func Shared(t *engine.Table) *Index {
	return t.AuxLoadOrStore(sharedIndexKey{}, func() any {
		return NewIndex(t)
	}).(*Index)
}

// SyncRows is the hook the engine's aux cache calls with the requesting
// version (Table.AuxLoadOrStore): it rebases the index onto t
// when t is a newer version of the indexed table family — longer, or
// equal-length with a larger retention base. Appends extend cached
// masks lazily on their next request; retention re-slices each mask
// past the dropped rows eagerly (they are whole segments, so whole
// words), writing no word a reader may hold.
func (ix *Index) SyncRows(t *engine.Table) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	newer := t.Version() > ix.t.Version() ||
		(t.Version() == ix.t.Version() && t.Base() > ix.t.Base())
	if !newer {
		return
	}
	drop := t.Base() - ix.t.Base()
	ix.t = t
	if drop <= 0 {
		return
	}
	for _, e := range ix.clauses {
		e.publish(e.bits.SkipWords(drop >> 6))
	}
}

// ClauseBits returns the match mask of one clause at the newest synced
// length, read in the critical section that builds the mask, so a
// retention pass cannot shrink the table between the two. The returned
// bitset is shared and read-only.
func (ix *Index) ClauseBits(c Clause) *bitset.Bitset {
	b, _, _ := ix.mask(c, -1, -1)
	return b
}

// ClauseBitsAtBase returns the match mask of one clause over the first n
// rows at base, and its popcount — the statistics-free selectivity
// estimate the executor's greedy clause ordering sorts by, kept with the
// cached mask so steady-state calls cost a map probe. It is the form
// queries use, so a statement executing against an older same-base table
// version gets a mask of exactly its length even while newer versions
// have already extended the cached bits. ok is false (and the mask nil)
// when base >= 0 and the index's window does not start at base: the
// caller's table version predates a retention pass and the head words
// its mask would need are gone. Callers then fall back to per-row
// evaluation. The returned bitset is shared and read-only.
func (ix *Index) ClauseBitsAtBase(c Clause, base, n int) (*bitset.Bitset, int, bool) {
	b, count, ok := ix.mask(c, base, n)
	if ok && count < 0 {
		count = b.Count()
	}
	return b, count, ok
}

// mask returns clause c's mask over the first n rows at base (n < 0: the
// indexed table's, read under the lock that serves it), and its popcount
// when it is the cached mask itself (-1 for a prefix copy or an uncached
// build).
func (ix *Index) mask(c Clause, base, n int) (*bitset.Bitset, int, bool) {
	rows := func() int {
		if n < 0 {
			return ix.t.NumRows()
		}
		return n
	}
	ix.mu.RLock()
	if base >= 0 && ix.t.Base() != base {
		ix.mu.RUnlock()
		return nil, 0, false
	}
	if c.Val.T == engine.TFloat && math.IsNaN(c.Val.F) {
		// NaN keys never hit a map; build uncached rather than leak an
		// entry per call.
		defer ix.mu.RUnlock()
		return ix.extend(bitset.New(0), c, rows()), -1, true
	}
	if e := ix.clauses[c]; e != nil {
		ix.hit(e)
		if b, count, n := e.bits, e.count, rows(); b.Len() >= n {
			ix.mu.RUnlock()
			b, count = prefix(b, count, n)
			return b, count, true
		}
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if base >= 0 && ix.t.Base() != base {
		return nil, 0, false
	}
	e := ix.clauses[c]
	if e == nil {
		e = ix.insert(c)
	} else {
		ix.hit(e)
	}
	if e.bits.Len() < rows() {
		e.publish(ix.extend(e.bits, c, rows()))
	}
	b, count := prefix(e.bits, e.count, rows())
	return b, count, true
}

// prefix returns the first n rows of a cached mask: the mask itself at
// its own length, else a copy (an older version's request).
func prefix(b *bitset.Bitset, count, n int) (*bitset.Bitset, int) {
	if b.Len() == n {
		return b, count
	}
	return bitset.SnapshotWords(n, b.Words()), -1
}

// insert adds an empty entry for c. A full index first evicts by second
// chance: the sweep clears each set reference bit it passes and evicts
// the first entry whose bit was clear — at most one lap, as no reader
// runs under the write lock. Caller holds ix.mu (write).
func (ix *Index) insert(c Clause) *maskEntry {
	ix.inserts++
	e := &maskEntry{c: c, bits: bitset.New(0), born: ix.inserts}
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

// extend returns clause c's mask over the first n rows: a fresh copy of
// old's words with rows [old.Len(), n) decoded into it. old, which
// readers may hold, is not written. Caller holds ix.mu.
func (ix *Index) extend(old *bitset.Bitset, c Clause, n int) *bitset.Bitset {
	words := make([]uint64, (n+63)>>6)
	copy(words, old.Words())
	if ci := ix.t.Schema().ColIndex(c.Col); ci >= 0 {
		// An unknown column matches nothing.
		ix.decode(words, ci, c, old.Len(), n)
	}
	return bitset.FromWords(n, words)
}

// decode sets the rows in [from, n) of column ci that match c.
func (ix *Index) decode(words []uint64, ci int, c Clause, from, n int) {
	colType := ix.t.Schema()[ci].Type
	switch {
	case c.Val.IsNull():
		// engine.Compare places NULL below every non-NULL value, so
		// every non-NULL row compares as +1.
		if opMatchesCmp(c.Op, 1) {
			ix.decodeNonNull(words, ci, from, n)
		}
	case colType.IsNumeric() && c.Val.T.IsNumeric():
		ix.decodeNumeric(words, ci, c, from, n)
	case colType == engine.TString && c.Val.T == engine.TString:
		ix.decodeString(words, ci, c, from, n)
	}
	// Otherwise the types are incomparable: engine.Compare errors, the
	// clause matches nothing.
}

// forEachSegSpan walks rows [from, n) a segment at a time, handing fn
// segment k, the mask words from the segment's first row on, and the
// segment-local row span [lo, hi) to decode.
func (ix *Index) forEachSegSpan(words []uint64, from, n int, fn func(k int, seg []uint64, lo, hi int)) {
	segRows := ix.t.SegRows()
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
func (ix *Index) zoneSpan(seg []uint64, k, ci, lo, hi int, verdict func(engine.ZoneInfo) zoneVerdict) bool {
	z, ok := ix.segZone(k, ci, lo, hi)
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
func (ix *Index) decodeNonNull(words []uint64, ci, from, n int) {
	r := ix.t.NewColReader(ci)
	defer r.Close()
	numeric := ix.t.Schema()[ci].Type.IsNumeric() // every column is numeric or a string
	ix.forEachSegSpan(words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !ix.zoneSpan(seg, k, ci, lo, hi, zoneNonNullVerdict) {
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
func (ix *Index) decodeNumeric(words []uint64, ci int, c Clause, from, n int) {
	if c.Op == OpLike {
		return // LIKE on a numeric column matches nothing
	}
	cv := c.Val.Float()
	r := ix.t.NewColReader(ci)
	defer r.Close()
	verdict := func(z engine.ZoneInfo) zoneVerdict { return zoneNumericVerdict(z, c.Op, cv) }
	ix.forEachSegSpan(words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !ix.zoneSpan(seg, k, ci, lo, hi, verdict) {
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
func (ix *Index) decodeString(words []uint64, ci int, c Clause, from, n int) {
	values := ix.t.Dict(ci).Values()
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
	r := ix.t.NewColReader(ci)
	defer r.Close()
	ix.forEachSegSpan(words, from, n, func(k int, seg []uint64, lo, hi int) {
		if !ix.zoneSpan(seg, k, ci, lo, hi, zone) {
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
		b, _, _ := ix.mask(c, -1, dst.Len())
		dst.And(b)
	}
	return dst
}
