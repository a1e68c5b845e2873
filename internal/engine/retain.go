package engine

import (
	"fmt"
	"slices"
)

// Retention drops whole head segments from a table family so an
// unbounded append stream runs at bounded memory. Only sealed segments
// are droppable (the tail always survives), and drops are whole
// segments, so the dropped row count is a multiple of SegRows — and,
// because SegRows >= 64, of the bitset word size. Local row id r of the
// retained version is id r + dropped of the old version; the shared
// predicate index rebases its clause masks by dropping whole leading
// chunks. Everything carried across versions above it follows one
// rule: a carried result, scorer or ranking is valid only at the base
// it was computed at, so exec.Advance and core.DebugAdvance rebuild
// when the base moved and record the reason in their plan.

// RetentionPolicy selects how many head segments RetainTail may drop.
// The zero policy drops nothing. Both bounds may be combined; a
// segment is dropped only when every configured bound allows it.
type RetentionPolicy struct {
	// MaxRows, when > 0, keeps at least the newest MaxRows rows: a head
	// segment is dropped only if at least MaxRows rows remain after it.
	MaxRows int
	// TimeCol/Cutoff, when TimeCol is non-empty, drop a head segment
	// only if every non-NULL value of the (numeric) column is below
	// Cutoff — the age horizon, with the caller mapping wall-clock age
	// to the column's unit (e.g. unix seconds).
	TimeCol string
	Cutoff  float64
}

// RetainStats reports what a retention pass did and what remains.
type RetainStats struct {
	DroppedSegments  int
	DroppedRows      int
	RetainedSegments int // sealed segments still held (tail excluded)
	RetainedRows     int
	Base             int // the new version's Base()
}

// RetainTail applies the policy to this table version, returning a new
// version with the dropped head segments removed and row ids rebased
// (see Base). Like AppendCols it is copy-on-write and linear: the
// receiver and everything derived from it stay valid, and only the
// newest version may be retained (errStaleAppend otherwise). When the
// policy drops nothing the receiver itself is returned.
func (t *Table) RetainTail(pol RetentionPolicy) (nt *Table, stats0 RetainStats, err error) {
	// A TimeCol policy over an out-of-core segment without a zone map
	// faults its chunk; a load failure surfaces as the retention error.
	defer CatchSegmentLoad(&err)
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	if t.pub != t.fam.pub {
		return nil, RetainStats{}, fmt.Errorf("engine: table %s: %w (retention on superseded version)", t.name, errStaleAppend)
	}
	drop := t.dropCountLocked(pol)
	stats := RetainStats{
		DroppedSegments:  drop,
		DroppedRows:      drop << t.bits,
		RetainedSegments: len(t.sealed) - drop,
		RetainedRows:     t.nrows - drop<<t.bits,
		Base:             t.base + drop<<t.bits,
	}
	if drop == 0 {
		return t, stats, nil
	}
	nt = t.forkLocked()
	// A fresh array, not a subslice: sharing t's would keep the dropped
	// segments reachable for as long as nt lives, and with them what
	// they hold (chunks, or a loader's retired file handle).
	nt.sealed, nt.nrows, nt.base = slices.Clone(t.sealed[drop:]), stats.RetainedRows, stats.Base
	return nt, stats, nil
}

// dropCountLocked computes how many head segments the policy allows
// dropping. Caller holds fam.mu.
func (t *Table) dropCountLocked(pol RetentionPolicy) int {
	if pol.MaxRows <= 0 && pol.TimeCol == "" {
		return 0 // the zero policy drops nothing
	}
	max := len(t.sealed)
	if pol.MaxRows > 0 {
		byRows := (t.nrows - pol.MaxRows) >> t.bits
		if byRows < max {
			max = byRows
		}
	}
	if max < 0 {
		max = 0
	}
	if pol.TimeCol == "" {
		return max
	}
	ci := t.schema.ColIndex(pol.TimeCol)
	if ci < 0 || !t.schema[ci].Type.IsNumeric() {
		return 0
	}
	r := t.NewColReader(ci)
	defer r.Close()
	drop := 0
	for drop < max && r.allBelowCutoff(drop, pol.Cutoff) {
		drop++
	}
	return drop
}

// allBelowCutoff reports whether every non-NULL value of r's numeric
// column in sealed segment k is < cutoff (the TimeCol retention test).
// NaN keeps the segment, conservatively. A segment with a zone map (only
// a faultable one has one) answers from it — no disk touched — and
// otherwise reads the chunk like any read.
func (r *ColReader) allBelowCutoff(k int, cutoff float64) bool {
	if s := r.t.sealed[k]; s.zones != nil {
		// No finite values (all NULL) is vacuously old.
		z := s.zones[r.col]
		return z.NaNCount == 0 && (z.NullCount == z.Rows || !z.HasRange || z.Max < cutoff)
	}
	vals, null := r.Floats(k)
	for i, f := range vals {
		if null[i>>6]&(1<<(uint(i)&63)) == 0 && !(f < cutoff) { // NaN keeps the segment, conservatively
			return false
		}
	}
	return true
}

// Retain applies a retention policy to the named table and atomically
// republishes the retained version under the same name — the
// catalog-level counterpart of DB.Append. In-flight queries keep their
// immutable snapshots of the old version (whose segments stay alive
// until those readers finish); queries started after Retain returns
// see the rebased window.
func (db *DB) Retain(name string, pol RetentionPolicy) (*Table, RetainStats, error) {
	var stats RetainStats
	nt, err := db.republish(name, func(t *Table) (nt *Table, err error) {
		nt, stats, err = t.RetainTail(pol)
		return nt, err
	})
	if err != nil {
		return nil, RetainStats{}, err
	}
	return nt, stats, nil
}

// MemStats approximates this version's resident storage: the chunk
// slices its segments and tail hold. It is an estimate (string bodies
// and the dictionary are not traversed), but it moves faithfully with
// row and segment count, which is what retention monitoring needs.
func (t *Table) MemStats() (segments int, bytes int) {
	segments = (t.nrows + t.mask) >> t.bits
	for k := 0; k < segments; k++ {
		// A faultable segment holds nothing here — its faulted chunks are
		// accounted by the loader's pool, not the table.
		for _, ch := range t.segAt(k).chunks {
			bytes += ch.Bytes()
		}
	}
	return segments, bytes
}
