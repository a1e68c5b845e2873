package exec

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/engine"
)

// This file implements incremental result maintenance for streaming
// appends: AdvanceCtx(ctx, res, grown) produces the result the statement
// would yield over the grown table by scanning ONLY the appended rows —
// O(batch + groups) instead of the O(n) rescan a fresh run costs. It is
// runVector with res's groups as the prior: their complete fold blocks
// carry, the block the old row count falls inside resumes from clones of
// its float-sum partials, and new blocks fold after it, as a fresh run
// folds them.
// With the predicate index's suffix-extended clause masks, a monitoring
// loop (append batch, re-run query, re-Debug) scans per batch only the
// batch; the re-Debug's first provenance read still copies the argument
// views, O(table).
//
// Correctness leans on three append-stability facts: row ids never
// change (appends only add larger ids), dictionary codes are assigned
// in first-appearance order (a group key's code is the same in every
// table version), and group first-appearance order over the full table
// equals the old order followed by suffix-only newcomers.
//
// The previous result stays valid and immutable for concurrent readers:
// its states are cloned before anything folds into them. Advance runs no
// lineage pass and touches no provenance: the result it returns records
// the nearest built ancestor's (its parent's if built, else the one its
// parent recorded), and its first read extends that by the rows appended
// since (Result.Provenance). So one result may be the parent of any
// number of Advances, and a chain of unread advances costs one suffix
// lineage pass when it is finally read.
//
// Carried state is valid only at the retention base it was computed at:
// its row ids are local to that base. When a retention pass moved the
// base, Advance re-runs the statement over the retained window instead
// and says so in Plan.Fallback ("retention: …").

// Advance is AdvanceCtx without a context. bench/ only; goes with
// ROADMAP item 14.
func Advance(res *Result, grown *engine.Table) (*Result, error) {
	return AdvanceCtx(context.Background(), res, grown)
}

// AdvanceCtx executes res.Stmt against grown — a newer version of
// res.Source's table family (see engine.Table.AppendBatch) — reusing
// res's group states and folding in only the appended rows.
// Plan.Incremental reports whether that happened; when grown's retention
// base differs from res.Source's, the statement re-runs over the whole
// of grown and Plan.Fallback records why — the only thing that field
// names. Aggregate-free projections always re-run. A nil res, a grown
// of another family or one shorter than res.Source is an error.
//
// The cancellation-safety contract the serving layer depends on: a
// cancelled advance returns a context error and publishes nothing, and
// res is never written, so retrying AdvanceCtx on the same res, or
// re-running the statement from scratch, yields bit-identical results.
func AdvanceCtx(ctx context.Context, res *Result, grown *engine.Table) (_ *Result, err error) {
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
		out, err := Run(ctx, grown, stmt)
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
	// The WHERE mask is needed only for suffix rows: lowered conjuncts
	// extend their clause masks incrementally and residual ones evaluate
	// just [oldN, newN) — otherwise a non-lowerable WHERE would silently
	// reinstate the O(table)-per-batch rescan this path exists to avoid.
	out, err := runVector(ctx, grown, stmt, res.aggArgs, res.aggItems, protos, res.allGroups, oldN)
	if err != nil {
		return nil, err
	}
	out.Plan.Incremental = true
	// The nearest built ancestor: res's value, else the one res recorded
	// (none when a build publishes between the loads: out's first read
	// then builds from scratch).
	out.anc.Store(cmp.Or(res.prov.Load(), res.anc.Load()))
	return out, nil
}

// seed returns groups keyed for a scan under p: one vGroup per group, in
// order, whose slots (one backing array for all) are rebuilt from the
// boxed key values with the canonicalization the scan applies per row;
// append-stable dictionary codes make the dict slots version-portable.
// Its g is the group itself.
func (p *vectorPlan) seed(groups []*Group) ([]*vGroup, error) {
	nk := len(p.keys)
	slots := make([]uint64, nk*len(groups))
	out := make([]*vGroup, len(groups))
	for gi, g := range groups {
		vg := &vGroup{g: g, slots: slots[gi*nk : (gi+1)*nk : (gi+1)*nk]}
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
		out[gi] = vg
	}
	return out, nil
}
