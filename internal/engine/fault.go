package engine

import (
	"errors"
	"fmt"
	"slices"
)

// This file is the engine half of the out-of-core segment contract. A
// segment sealed in this process holds its typed chunks (segment.go); a
// durability layer (internal/store) attaches every recovered segment
// FAULTABLE: the segment keeps nothing and every read pins the needed
// chunk through a ChunkLoader — typically backed by a shared buffer pool
// that pins chunks while scans read them and evicts cold ones under a
// byte budget. Either way a boxed Value is only ever built for the one
// cell a reader asked for (reader.go), never per chunk. Readers of a
// held segment take the chunk slice as it stands.
//
// The pin/unpin contract: a Pin* call returns chunk data plus a
// release func. The data stays VALID forever (Go's GC keeps it alive
// while referenced — eviction only drops the pool's reference), so a
// forgotten release is an accounting leak, never a use-after-free. But
// the memory bound only holds if pins are short-lived: ColReader
// (reader.go) is the one type that pins, a scan holds at most one
// pinned chunk per reader (released when it moves to the next segment,
// and unconditionally — via defer — when the scan exits, so
// cancellation never leaks a pin), and nothing in the engine caches
// faulted data outside the pool, which is what makes a table several
// times larger than the pool budget servable at bounded heap.

// ChunkLoader faults one sealed segment's column chunk in from a
// backing store. seg is the STREAM segment index (stable across
// retention rebases), col the schema column index. The returned
// release must be called exactly once when the caller is done reading;
// missed reports whether the call hit backing storage (false = served
// from the pool). Implementations must be safe for concurrent use.
type ChunkLoader interface {
	// PinFloat returns the float64 decode of a numeric column: values
	// (NaN for NULL) and the NULL bitmap words (segRows/64 of them).
	PinFloat(seg, col int) (vals []float64, null []uint64, release func(), missed bool, err error)
	// PinCodes returns a string column's dictionary codes (-1 = NULL).
	// Codes index the dictionary the table was preloaded with
	// (PreloadDict) — the loader and the engine share one code space.
	PinCodes(seg, col int) (codes []int32, release func(), missed bool, err error)
	// PinInt returns the exact int64 cells of an int-like column (TInt,
	// TBool, TTime; NULL cells hold 0) — what per-cell boxing reads where
	// PinFloat's float64 coercion is lossy (|v| ≥ 2^53).
	PinInt(seg, col int) (cells []int64, release func(), missed bool, err error)
}

// ZoneInfo is the per-segment-column zone map written at seal time:
// enough metadata to prove a predicate clause matches nothing (or
// everything) in the segment without faulting the chunk in.
type ZoneInfo struct {
	// Min/Max bound the non-NULL, non-NaN values of a numeric column.
	// Valid only when HasRange (false for string columns and for
	// segments with no finite values).
	Min, Max float64
	// NullCount / NaNCount count NULL rows and stored-NaN rows.
	NullCount int
	NaNCount  int
	// Rows is the segment's row count (== SegRows of the table).
	Rows int
	// HasRange reports Min/Max are meaningful.
	HasRange bool
	// Presence is a 256-bit summary of a dict column's codes: bit
	// code%256 is set iff some row holds that code. A clear bit proves
	// the code absent; a set bit proves nothing (collisions). Valid
	// only when HasPresence.
	Presence    [4]uint64
	HasPresence bool
}

// SegmentLoadError reports a chunk fault failure (I/O error, checksum
// mismatch, segment quarantined). It travels as a panic from deep
// inside reader accessors — which have no error returns — and is
// converted back to an error at the executor's entry points via
// CatchSegmentLoad.
type SegmentLoadError struct {
	Table string
	Seg   int // stream segment index
	Col   int
	Err   error
}

func (e *SegmentLoadError) Error() string {
	return fmt.Sprintf("engine: table %s: loading segment %d column %d: %v", e.Table, e.Seg, e.Col, e.Err)
}

func (e *SegmentLoadError) Unwrap() error { return e.Err }

// CatchSegmentLoad converts a SegmentLoadError panic into *errp,
// re-panicking anything else. Deferred at every public entry point
// that can reach a faultable segment (exec.Run,
// exec.AdvanceCtx, the stats accessors) so a failed chunk load is a
// query error, not a crash. The panic may wrap the SegmentLoadError (a
// par.Do helper's re-raised panic does); *errp gets it bare.
func CatchSegmentLoad(errp *error) {
	if r := recover(); r != nil {
		var sle *SegmentLoadError
		if err, ok := r.(error); ok && errors.As(err, &sle) {
			*errp = sle
			return
		}
		panic(r)
	}
}

// faultable reports whether this segment's chunks load on demand.
func (s *segment) faultable() bool { return s.loader != nil }

// AttachSegment appends one recovered sealed segment to the newest
// version of the table — the recovery-time counterpart of sealing a
// tail. The segment's rows are the next SegRows stream rows, and its
// chunks load on demand through loader (stream segment index =
// Base()/SegRows + sealed count at attach time; string codes index the
// dictionary PreloadDict seeded). zones, when non-nil, carries one
// ZoneInfo per schema column for predicate pruning (nil: every clause
// faults). Like AppendCols it is copy-on-write and linear: it returns a
// new version and refuses stale snapshots. The tail must be empty
// (recovery attaches segments before replaying tail rows); a tail that
// is exactly full is sealed first.
func (t *Table) AttachSegment(loader ChunkLoader, zones []ZoneInfo) (*Table, error) {
	switch {
	case loader == nil:
		return nil, fmt.Errorf("engine: table %s: attach without a loader", t.name)
	case zones != nil && len(zones) != len(t.schema):
		return nil, fmt.Errorf("engine: table %s: attach with %d zones, schema has %d columns", t.name, len(zones), len(t.schema))
	}
	fam := t.fam
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if t.pub != fam.pub {
		return nil, fmt.Errorf("engine: table %s: %w (attach to superseded version)", t.name, errStaleAppend)
	}
	if tailLen := t.nrows & t.mask; tailLen != 0 {
		return nil, fmt.Errorf("engine: table %s: attach with %d tail rows (segments attach only at segment boundaries)", t.name, tailLen)
	}
	nt := t.forkLocked()
	if nt.nrows != len(nt.sealed)<<nt.bits {
		nt.sealTailLocked()
	}
	nt.sealed = append(nt.sealed, &segment{
		dicts:     slices.Clone(nt.tail.dicts),
		loader:    loader,
		streamIdx: nt.base>>nt.bits + len(nt.sealed),
		zones:     zones,
	})
	nt.nrows += 1 << nt.bits
	fam.hw = nt.base + nt.nrows
	return nt, nil
}

// PreloadDict seeds string column c's dictionary with values in code
// order — recovery calls it (on a still-empty table) with the
// durability layer's persisted dictionary so that the int32 codes of
// the segments it attaches mean the same strings the engine's
// dictionary does, with no per-row remapping. The preloaded
// values are visible to every snapshot (an over-approximation when
// some value's rows were all lost to retention or quarantine: a code
// matching zero rows is harmless). Appends after preload keep
// assigning codes in first-appearance order starting at len(values),
// which is exactly the order the store's dictionary grows in — the two
// sides never diverge.
func (t *Table) PreloadDict(c int, values []string) error {
	if c < 0 || c >= len(t.schema) || t.schema[c].Type != TString {
		return fmt.Errorf("engine: table %s: preload dict on non-string column %d", t.name, c)
	}
	t.fam.mu.Lock()
	defer t.fam.mu.Unlock()
	if t.nrows != 0 || len(t.sealed) != 0 {
		return fmt.Errorf("engine: table %s: preload dict on non-empty table", t.name)
	}
	ds := t.fam.dict[c]
	if len(ds.values) != 0 {
		return fmt.Errorf("engine: table %s: column %d dictionary already populated", t.name, c)
	}
	ds.values = append([]string(nil), values...)
	for i, s := range values {
		ds.byStr[s] = int32(i)
	}
	// Every version descends from this one and inherits the bound.
	t.captureDictsLocked()
	return nil
}

// SegmentZone returns sealed segment k's zone map for column c, when
// one was attached. ok is false for segments sealed in this process,
// segments attached without zones, and out-of-range indexes.
func (t *Table) SegmentZone(k, c int) (ZoneInfo, bool) {
	if k < 0 || k >= len(t.sealed) || c < 0 || c >= len(t.schema) {
		return ZoneInfo{}, false
	}
	seg := t.sealed[k]
	if seg.zones == nil {
		return ZoneInfo{}, false
	}
	return seg.zones[c], true
}

// SegmentFaultable reports whether sealed segment k's chunks load on
// demand (attached with a loader) rather than being held in memory.
func (t *Table) SegmentFaultable(k int) bool {
	return k >= 0 && k < len(t.sealed) && t.sealed[k].faultable()
}
