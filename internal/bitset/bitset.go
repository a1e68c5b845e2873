// Package bitset implements the dense bitmap that underpins DBWipes'
// columnar scoring fast path. Lineage sets, predicate match sets, and
// culpability sets are all subsets of [0, NumRows) of one source table,
// so a flat []uint64 bitmap turns the per-predicate set algebra
// (intersection with each group's lineage, membership counting) into
// word-level AND/popcount loops instead of hash-map probes.
//
// The janus-datalog lesson applies directly: provenance workloads are
// set-membership-bound, and the set representation decides the constant
// factor. A Bitset over a 100k-row table is ~12.5 KB — it fits in L1/L2
// and intersects in ~1.5k word operations.
package bitset

import "math/bits"

const wordBits = 64

// Bitset is a fixed-length dense bitmap over [0, Len()).
type Bitset struct {
	words []uint64
	n     int
}

// New returns an empty bitset able to hold n bits.
func New(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromWords wraps words as a bitset of length n, taking ownership of
// the slice. The slice is resized to exactly the word count n needs and
// ghost bits at positions >= n are cleared, so a prefix copied out of a
// longer canonical bitmap becomes a well-formed shorter bitset. This is
// the constructor the incremental view/mask maintenance uses to stamp
// per-table-version snapshots out of one growing word array.
func FromWords(n int, words []uint64) *Bitset {
	if n < 0 {
		n = 0
	}
	nw := (n + wordBits - 1) / wordBits
	for len(words) < nw {
		words = append(words, 0)
	}
	b := &Bitset{words: words[:nw], n: n}
	b.trimTail()
	return b
}

// SnapshotWords stamps an immutable length-n bitset out of a growable
// word slice: prefix copy, zero-padded or truncated to n's word count,
// ghost bits cleared. The input is not retained.
func SnapshotWords(n int, words []uint64) *Bitset {
	if n < 0 {
		n = 0
	}
	nw := (n + wordBits - 1) / wordBits
	w := make([]uint64, nw)
	if nw > len(words) {
		copy(w, words)
	} else {
		copy(w, words[:nw])
	}
	return FromWords(n, w)
}

// FromRows returns a bitset of length n with the given rows set. Rows
// outside [0, n) are ignored.
func FromRows(n int, rows []int) *Bitset {
	b := New(n)
	for _, r := range rows {
		if r >= 0 && r < n {
			b.words[r/wordBits] |= 1 << (uint(r) % wordBits)
		}
	}
	return b
}

// Len returns the bit capacity.
func (b *Bitset) Len() int { return b.n }

// Words exposes the backing words for read-only word-level iteration in
// hot loops. Callers must not mutate the returned slice.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i. Out-of-range bits are ignored.
func (b *Bitset) Set(i int) {
	if i >= 0 && i < b.n {
		b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// Unset clears bit i. Out-of-range bits are ignored.
func (b *Bitset) Unset(i int) {
	if i >= 0 && i < b.n {
		b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Get reports whether bit i is set; out-of-range bits read as false.
func (b *Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Fill sets every bit in [0, Len()).
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// FillFrom sets every bit in [lo, Len()), leaving bits below lo
// untouched — the window constructor for suffix-scoped filter masks.
func (b *Bitset) FillFrom(lo int) {
	if lo <= 0 {
		b.Fill()
		return
	}
	if lo >= b.n {
		return
	}
	wi := lo / wordBits
	b.words[wi] |= ^uint64(0) << (uint(lo) % wordBits)
	for i := wi + 1; i < len(b.words); i++ {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// trimTail clears the unused high bits of the last word so Count and
// iteration never see ghost bits.
func (b *Bitset) trimTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	out := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// CopyFrom overwrites b with other's bits. The two must have the same
// length; CopyFrom panics otherwise.
func (b *Bitset) CopyFrom(other *Bitset) {
	if b.n != other.n {
		panic("bitset: CopyFrom length mismatch")
	}
	copy(b.words, other.words)
}

// The word-level set-algebra kernels below unroll their loops 4 words
// at a time. The Go compiler does not auto-vectorize, so the unroll is
// what amortizes loop overhead (bounds check, counter, branch) across
// 256 bits per iteration; the trailing scalar loop mops up the last
// 0–3 words.

// And intersects b with other in place (same length required).
func (b *Bitset) And(other *Bitset) {
	if b.n != other.n {
		panic("bitset: And length mismatch")
	}
	x := b.words
	y := other.words[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] &= y[i]
		x[i+1] &= y[i+1]
		x[i+2] &= y[i+2]
		x[i+3] &= y[i+3]
	}
	for ; i < len(x); i++ {
		x[i] &= y[i]
	}
}

// AndNot removes other's bits from b in place (same length required).
func (b *Bitset) AndNot(other *Bitset) {
	if b.n != other.n {
		panic("bitset: AndNot length mismatch")
	}
	x := b.words
	y := other.words[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] &^= y[i]
		x[i+1] &^= y[i+1]
		x[i+2] &^= y[i+2]
		x[i+3] &^= y[i+3]
	}
	for ; i < len(x); i++ {
		x[i] &^= y[i]
	}
}

// Or unions other into b in place (same length required).
func (b *Bitset) Or(other *Bitset) {
	if b.n != other.n {
		panic("bitset: Or length mismatch")
	}
	x := b.words
	y := other.words[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] |= y[i]
		x[i+1] |= y[i+1]
		x[i+2] |= y[i+2]
		x[i+3] |= y[i+3]
	}
	for ; i < len(x); i++ {
		x[i] |= y[i]
	}
}

// IntersectOf sets b = x & y without allocating (all same length).
func (b *Bitset) IntersectOf(x, y *Bitset) {
	if b.n != x.n || b.n != y.n {
		panic("bitset: IntersectOf length mismatch")
	}
	d := b.words
	xs := x.words[:len(d)]
	ys := y.words[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		d[i] = xs[i] & ys[i]
		d[i+1] = xs[i+1] & ys[i+1]
		d[i+2] = xs[i+2] & ys[i+2]
		d[i+3] = xs[i+3] & ys[i+3]
	}
	for ; i < len(d); i++ {
		d[i] = xs[i] & ys[i]
	}
}

// AndCountWith intersects b with other in place and returns the number
// of bits that remain set — the fused AND+popcount kernel the greedy
// filter planner uses to detect an emptied running mask in the same
// pass that produced it (same length required).
func (b *Bitset) AndCountWith(other *Bitset) int {
	if b.n != other.n {
		panic("bitset: AndCountWith length mismatch")
	}
	x := b.words
	y := other.words[:len(x)]
	c := 0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		w0 := x[i] & y[i]
		w1 := x[i+1] & y[i+1]
		w2 := x[i+2] & y[i+2]
		w3 := x[i+3] & y[i+3]
		x[i], x[i+1], x[i+2], x[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(x); i++ {
		x[i] &= y[i]
		c += bits.OnesCount64(x[i])
	}
	return c
}

// AndNotCountWith removes other's bits from b in place and returns the
// number of bits that remain set — the fused difference+popcount kernel
// the residual filter path uses to kill known-FALSE rows from the
// eligibility mask and detect exhaustion in one pass (same length
// required).
func (b *Bitset) AndNotCountWith(other *Bitset) int {
	if b.n != other.n {
		panic("bitset: AndNotCountWith length mismatch")
	}
	x := b.words
	y := other.words[:len(x)]
	c := 0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		w0 := x[i] &^ y[i]
		w1 := x[i+1] &^ y[i+1]
		w2 := x[i+2] &^ y[i+2]
		w3 := x[i+3] &^ y[i+3]
		x[i], x[i+1], x[i+2], x[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(x); i++ {
		x[i] &^= y[i]
		c += bits.OnesCount64(x[i])
	}
	return c
}

// AndNotOf sets b = x &^ y in a single pass (all same length) — the
// fused difference kernel filter lowering uses to build FALSE masks
// without a Clone+AndNot double pass.
func (b *Bitset) AndNotOf(x, y *Bitset) {
	if b.n != x.n || b.n != y.n {
		panic("bitset: AndNotOf length mismatch")
	}
	d := b.words
	xs := x.words[:len(d)]
	ys := y.words[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		d[i] = xs[i] &^ ys[i]
		d[i+1] = xs[i+1] &^ ys[i+1]
		d[i+2] = xs[i+2] &^ ys[i+2]
		d[i+3] = xs[i+3] &^ ys[i+3]
	}
	for ; i < len(d); i++ {
		d[i] = xs[i] &^ ys[i]
	}
}

// AnyWords reports whether any word in ws has a set bit — the kernel
// behind segment-skip detection over a flat mask's word windows.
func AnyWords(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// CountWords returns the total popcount of ws.
func CountWords(ws []uint64) int {
	c := 0
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		c += bits.OnesCount64(ws[i]) + bits.OnesCount64(ws[i+1]) +
			bits.OnesCount64(ws[i+2]) + bits.OnesCount64(ws[i+3])
	}
	for ; i < len(ws); i++ {
		c += bits.OnesCount64(ws[i])
	}
	return c
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	return CountWords(b.words)
}

// AndCount returns |x ∩ y| without materializing the intersection.
func AndCount(x, y *Bitset) int {
	if x.n != y.n {
		panic("bitset: AndCount length mismatch")
	}
	xs := x.words
	ys := y.words[:len(xs)]
	c := 0
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		c += bits.OnesCount64(xs[i]&ys[i]) + bits.OnesCount64(xs[i+1]&ys[i+1]) +
			bits.OnesCount64(xs[i+2]&ys[i+2]) + bits.OnesCount64(xs[i+3]&ys[i+3])
	}
	for ; i < len(xs); i++ {
		c += bits.OnesCount64(xs[i] & ys[i])
	}
	return c
}

// Iter is a resumable set-bit cursor. Unlike ForEach it needs no
// callback (so the surrounding loop can return errors and poll a
// context), and it stays valid when the *current or an earlier* bit is
// cleared mid-iteration: the word under the cursor is copied when the
// cursor enters it, so only mutations at not-yet-visited words are
// observed. That is exactly the discipline the residual filter path
// needs — it unsets bits it has already visited while walking.
type Iter struct {
	words []uint64
	wi    int    // index of the word after the one buffered in w
	w     uint64 // remaining bits of the current word, shifted in place
}

// Iter returns a cursor positioned at the first set bit >= start.
func (b *Bitset) Iter(start int) Iter {
	if start < 0 {
		start = 0
	}
	if start >= b.n {
		return Iter{}
	}
	wi := start / wordBits
	w := b.words[wi] &^ ((1 << (uint(start) % wordBits)) - 1)
	return Iter{words: b.words, wi: wi + 1, w: w}
}

// Next returns the next set bit position in ascending order; ok is
// false when the iteration is exhausted.
func (it *Iter) Next() (int, bool) {
	for it.w == 0 {
		if it.wi >= len(it.words) {
			return -1, false
		}
		it.w = it.words[it.wi]
		it.wi++
	}
	i := (it.wi-1)*wordBits + bits.TrailingZeros64(it.w)
	it.w &= it.w - 1
	return i, true
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Rows returns the set bit positions as a fresh sorted slice — the
// bridge back to the []int row-list world.
func (b *Bitset) Rows() []int {
	dst := make([]int, 0, b.Count())
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// WordRange returns the index of the first and last non-zero words,
// inclusive. ok is false when the set is empty. Hot loops use it to
// restrict intersection to a group's occupied span.
func (b *Bitset) WordRange() (lo, hi int, ok bool) {
	lo = -1
	for i, w := range b.words {
		if w != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return 0, 0, false
	}
	return lo, hi, true
}

// ---- Segment-aligned views ----------------------------------------
//
// The storage engine chunks rows into fixed-size segments of at least
// 64 rows (a power of two), so a segment boundary is always a word
// boundary in every bitmap over row ids. These helpers exploit that:
// a flat bitset decomposes into per-segment word windows and
// per-segment word blocks concatenate into a flat bitset.

// ConcatWords stamps a length-n bitset out of per-segment word blocks:
// block k covers bits [k*segWords*64, ...), and each block may be
// shorter than segWords only if it is the last. Ghost bits past n are
// cleared. The blocks are not retained — this is the
// compose-by-concatenation constructor for segment-chunked masks.
func ConcatWords(n int, segWords int, blocks [][]uint64) *Bitset {
	nw := (n + wordBits - 1) / wordBits
	words := make([]uint64, nw)
	at := 0
	for _, blk := range blocks {
		if at >= nw {
			break
		}
		at += copy(words[at:], blk)
		if rem := at % segWords; rem != 0 && at < nw {
			at += segWords - rem // short (partial) block: pad to the segment
		}
	}
	return FromWords(n, words)
}
