package exec

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/engine"
)

// This file implements incremental result maintenance for streaming
// appends: Advance(res, grown) produces the result the statement would
// yield over the grown table by scanning ONLY the appended rows —
// O(batch + groups) instead of the O(n) rescan a fresh run costs. It is
// runVector with res's groups as the prior: their complete fold blocks
// carry, the block the old row count falls inside resumes from clones of
// its float-sum partials, and new blocks fold after it, as a fresh run
// folds them.
// With the predicate index's suffix-extended clause masks, a monitoring
// loop (append batch, re-run query, re-Debug) does per-batch work
// independent of total table size.
//
// Correctness leans on three append-stability facts: row ids never
// change (appends only add larger ids), dictionary codes are assigned
// in first-appearance order (a group key's code is the same in every
// table version), and group first-appearance order over the full table
// equals the old order followed by suffix-only newcomers.
//
// The previous result stays valid and immutable for concurrent readers:
// its states are cloned before anything folds into them, and
// lineage/argument slices grow by appending past every published length
// (prefix bytes are never rewritten). That makes advancing linear — a
// result can be advanced once; branching would clobber the shared suffix,
// so a second Advance returns an error.
//
// Carried state is valid only at the retention base it was computed at:
// its row ids are local to that base. When a retention pass moved the
// base, Advance re-runs the statement over the retained window instead
// and says so in Plan.Fallback ("retention: …").

// Advance executes res.Stmt against grown — a newer version of
// res.Source's table family (see engine.Table.AppendBatch) — reusing
// res's group states and folding in only the appended rows.
// Plan.Incremental reports whether that happened; when grown's retention
// base differs from res.Source's, the statement re-runs over the whole
// of grown and Plan.Fallback records why — the only thing that field
// names. Aggregate-free projections always re-run.
func Advance(res *Result, grown *engine.Table) (*Result, error) {
	return AdvanceCtx(context.Background(), res, grown)
}

// AdvanceCtx is Advance under a cancellable context, with the
// cancellation-safety contract the serving layer depends on: a
// cancelled advance returns a context error, publishes nothing, and
// leaves res exactly as usable as before — the claim is released, and
// any suffix rows the aborted scan appended sit past res's published
// slice lengths, where no reader indexes and where a retry overwrites
// them (the suffix scan is synchronous, so no writer outlives the
// call). Retrying AdvanceCtx on the same res, or re-running the
// statement from scratch, must yield bit-identical results.
func AdvanceCtx(ctx context.Context, res *Result, grown *engine.Table) (out *Result, err error) {
	// Any error after the claim below publishes nothing, so the claim
	// must be released for the caller to retry: partial suffix appends
	// from the aborted attempt live past res's published slice lengths
	// and are overwritten by the next attempt. Deferred before
	// CatchSegmentLoad so that it sees a chunk-load failure as err too.
	claimed := false
	defer func() {
		if err != nil {
			out = nil // a fault recovered below struck after out was built
		}
		if claimed && err != nil {
			res.argMu.Lock()
			res.advanced = false
			res.argMu.Unlock()
		}
	}()
	defer engine.CatchSegmentLoad(&err)
	if res == nil || res.Stmt == nil {
		return nil, fmt.Errorf("exec: Advance of nil result")
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if !res.Source.SameFamily(grown) {
		return nil, fmt.Errorf("exec: Advance target is not a version of the result's source table")
	}
	stmt := res.Stmt
	// rerun executes the statement over the whole of grown, recording why
	// the carried state could not be extended.
	rerun := func(reason string) (*Result, error) {
		out, err := RunOnWithCtx(ctx, grown, stmt)
		if err != nil {
			return nil, err
		}
		out.Plan.Fallback = reason
		return out, nil
	}
	// The one retention rule: carried state is valid only at the retention
	// base it was computed at, because its row ids are local to that base.
	if grown.Base() != res.Source.Base() {
		return rerun(fmt.Sprintf("retention: base moved from %d to %d", res.Source.Base(), grown.Base()))
	}
	oldN, newN := res.Source.NumRows(), grown.NumRows()
	if newN < oldN {
		return nil, fmt.Errorf("exec: Advance target has %d rows, result's source has %d", newN, oldN)
	}
	if !isGrouped(stmt) {
		// Projection: every output row is one source row; a re-run is
		// already O(n) output materialization, nothing to reuse.
		return rerun("")
	}

	protos, err := newProtos(stmt, res.aggItems)
	if err != nil {
		return nil, err
	}
	// Claim the result for advancing before touching any shared slice.
	res.argMu.Lock()
	if res.advanced {
		res.argMu.Unlock()
		return nil, fmt.Errorf("exec: result already advanced (advance chains are linear)")
	}
	res.advanced = true
	res.argMu.Unlock()
	claimed = true

	// The WHERE mask is needed only for suffix rows: lowered conjuncts
	// extend their clause masks incrementally and residual ones evaluate
	// just [oldN, newN) — otherwise a non-lowerable WHERE would silently
	// reinstate the O(table)-per-batch rescan this path exists to avoid.
	out, err = runVector(ctx, grown, stmt, res.aggArgs, res.aggItems, protos, res.allGroups, oldN)
	if err != nil {
		return nil, err
	}
	out.Plan.Incremental = true
	carryCaches(res, out, oldN, newN)
	return out, nil
}

// carry makes the copy of one prior group that runVector folds onto:
// Key is shared (immutable), and so are Lineage — appended rows land past
// the old length, which old readers never index — and done, which the
// fold copies before it first merges into it. The tail is not carried:
// the block it covers resumes from clones of it. The key
// slots are rebuilt into slots (zeroed, one per key column) from the boxed
// key values with the canonicalization the scan applies per row;
// append-stable dictionary codes make the dict slots version-portable.
func carry(g *Group, p *vectorPlan, slots []uint64) (*vGroup, error) {
	ng := &Group{Key: g.Key, Lineage: g.Lineage, FirstRow: g.FirstRow, done: g.done}
	vg := &vGroup{g: ng, slots: slots}
	for i, k := range p.keys {
		v := g.Key[i]
		if k.kind != kindDict {
			vg.slots[i] = p.valueSlot(v)
		} else if !v.IsNull() { // the scan: NULL code -1 → slot 0
			code := k.dict.Code(v.S)
			if code < 0 {
				return nil, fmt.Errorf("exec: internal: carried group key %q missing from the grown dictionary", v.S)
			}
			vg.slots[i] = uint64(code + 1)
		}
	}
	return vg, nil
}

// carryCaches extends the old result's lazily-built columnar caches —
// per-group lineage bitsets and per-ordinal argument views — onto the
// new result, so downstream Debug runs (influence.Scorer) reuse the
// unchanged prefix instead of rebuilding it: the prefix is a word-level
// memcpy plus amortized slice growth, and only the appended suffix is
// decoded or set bit-by-bit. out.allGroups begins with res.allGroups'
// copies, in order.
func carryCaches(res, out *Result, oldN, newN int) {
	// Snapshot the cache maps under the lock: concurrent readers of the
	// old result (a Debug in flight calls GroupLineageBitsShared /
	// AggArgFloats, which insert) may grow them while we carry.
	res.argMu.Lock()
	oldBits := make(map[*Group]*bitset.Bitset, len(res.lineBits))
	for g, b := range res.lineBits {
		oldBits[g] = b
	}
	oldAVs := make(map[int]*ArgView, len(res.argViews))
	for ord, av := range res.argViews {
		oldAVs[ord] = av
	}
	res.argMu.Unlock()

	if len(oldBits) > 0 {
		out.lineBits = make(map[*Group]*bitset.Bitset, len(oldBits))
		for gi, og := range res.allGroups {
			b, ok := oldBits[og]
			if !ok {
				continue
			}
			ng := out.allGroups[gi]
			nb := bitset.SnapshotWords(newN, b.Words())
			for _, r := range ng.Lineage[len(og.Lineage):] {
				nb.Set(r)
			}
			out.lineBits[ng] = nb
		}
	}

	if len(oldAVs) > 0 {
		out.argViews = make(map[int]*ArgView, len(oldAVs))
		for ord, old := range oldAVs {
			// Vals has len oldN; appends stay past published lengths.
			av := &ArgView{Vals: old.Vals, Null: bitset.SnapshotWords(newN, old.Null.Words())}
			// An evaluation error leaves this ordinal to a lazy full build.
			if fillArgView(av, out.aggCall(ord), out.Source, oldN, newN) == nil {
				out.argViews[ord] = av
			}
		}
	}
}
