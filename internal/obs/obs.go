// Package obs records where a request's time goes. A Record rides on the
// request's context, and each layer adds a stage's wall time to it with
// sp := obs.Start(ctx, stage) … sp.End(). The stages, in request order,
// are the one definition of a layer:
//
//	admit lock decode                    server: slot wait, session-lock wait, body decode
//	parse filter scan merge materialize  query: SQL, WHERE mask, scan, block fold, output
//	lineage                              a result's provenance, built on its first read
//	preprocess featurize enumerate predicates rank  Debug, as DebugResult.Timings' keys
//	wal fsync seal                       durable append: WAL record, sync, segment files
//	encode                               the JSON response
//
// A stage entered twice adds up, par.Do helpers may add concurrently, and
// with no Record on the context Start is one lookup: no clock, no allocation.
package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Stage is one layer of a request's work.
type Stage uint8

const (
	Admit Stage = iota
	Lock
	Decode
	Parse
	Filter
	Scan
	Merge
	Materialize
	Lineage
	Preprocess
	Featurize
	Enumerate
	Predicates
	Rank
	Wal
	Fsync
	Seal
	Encode
	numStages
)

var names = [numStages]string{"admit", "lock", "decode", "parse", "filter", "scan", "merge", "materialize",
	"lineage", "preprocess", "featurize", "enumerate", "predicates", "rank", "wal", "fsync", "seal", "encode"}

// Record is a request's (or an endpoint's) total time and spans per stage.
type Record struct{ ns, n [numStages]atomic.Int64 }

type ctxKey struct{}

// With returns ctx carrying r.
func With(ctx context.Context, r *Record) context.Context { return context.WithValue(ctx, ctxKey{}, r) }

// From returns the Record ctx carries, or nil.
func From(ctx context.Context) *Record {
	r, _ := ctx.Value(ctxKey{}).(*Record)
	return r
}

// Start begins a span of stage s on ctx's Record.
func Start(ctx context.Context, s Stage) Span { return From(ctx).Start(s) }

// Span is one entry into a stage. The zero Span's End is a no-op.
type Span struct {
	r     *Record
	s     Stage
	start time.Time
}

// Start begins a span of stage s on r; on a nil r it reads no clock.
func (r *Record) Start(s Stage) Span {
	if r == nil {
		return Span{}
	}
	return Span{r, s, time.Now()}
}

// End adds the span's wall time to its Record.
func (sp Span) End() {
	if sp.r != nil {
		sp.r.ns[sp.s].Add(int64(time.Since(sp.start)))
		sp.r.n[sp.s].Add(1)
	}
}

// Count is how many spans of stage s ended on r.
func (r *Record) Count(s Stage) int64 { return r.n[s].Load() }

// Add folds o's totals into r.
func (r *Record) Add(o *Record) {
	for s := range numStages {
		r.ns[s].Add(o.ns[s].Load())
		r.n[s].Add(o.n[s].Load())
	}
}

// Durations maps each stage from..to with a span to its time; nil r: none.
func (r *Record) Durations(from, to Stage) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for s := from; r != nil && s <= to; s++ {
		if r.n[s].Load() > 0 {
			out[names[s]] = time.Duration(r.ns[s].Load())
		}
	}
	return out
}

// ServerTiming renders r as a Server-Timing value: "scan;dur=1.533, merge;dur=0.258".
func (r *Record) ServerTiming() string { return r.render("%[1]s;dur=%[3]d.%03[4]d", ", ") }

// String renders r as JSON {"stage":{"count":n,"ms":x},…}: an expvar.Var.
func (r *Record) String() string { return "{" + r.render(`"%s":{"count":%d,"ms":%d.%03d}`, ",") + "}" }

// render joins each stage with a span, formatted (name, count, ms, µs%1000), by sep.
func (r *Record) render(format, sep string) string {
	b := make([]byte, 0, 256)
	for s := range numStages {
		if n, us := r.n[s].Load(), r.ns[s].Load()/1e3; n > 0 {
			if len(b) > 0 {
				b = append(b, sep...)
			}
			b = fmt.Appendf(b, format, names[s], n, us/1e3, us%1e3)
		}
	}
	return string(b)
}
