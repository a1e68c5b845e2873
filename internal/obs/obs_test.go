package obs

import (
	"context"
	"encoding/json"
	"regexp"
	"sync"
	"testing"
	"time"
)

// TestSpanAllocsNothing pins the zero-cost contract: a span allocates
// nothing, with or without a Record on the context.
func TestSpanAllocsNothing(t *testing.T) {
	for name, ctx := range map[string]context.Context{
		"no record": context.Background(),
		"record":    With(context.Background(), new(Record)),
	} {
		if a := testing.AllocsPerRun(100, func() { Start(ctx, Scan).End() }); a != 0 {
			t.Errorf("%s: a span allocates %v times", name, a)
		}
	}
}

// TestRecordAddsUp checks spans add per stage, concurrently too, and
// that the views agree: Durations over a range, the Server-Timing value
// and the JSON an endpoint's stats render.
func TestRecordAddsUp(t *testing.T) {
	r := new(Record)
	ctx := With(context.Background(), r)
	if From(ctx) != r || From(context.Background()) != nil {
		t.Fatal("From does not return the attached Record")
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := Start(ctx, Scan)
			time.Sleep(time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	r.Start(Rank).End()
	if r.Count(Scan) != 8 || r.Count(Rank) != 1 || r.Count(Merge) != 0 {
		t.Fatalf("counts scan %d rank %d merge %d, want 8 1 0", r.Count(Scan), r.Count(Rank), r.Count(Merge))
	}
	d := r.Durations(Preprocess, Rank)
	if len(d) != 1 || d["rank"] <= 0 {
		t.Fatalf("Durations(preprocess..rank) = %v, want only rank", d)
	}
	if d := r.Durations(Admit, Encode); d["scan"] < 8*time.Millisecond {
		t.Fatalf("scan total %v under the 8 slept milliseconds", d["scan"])
	}
	if d := (*Record)(nil).Durations(Admit, Encode); d == nil || len(d) != 0 {
		t.Fatalf("a nil Record's Durations = %v, want empty", d)
	}
	if h := r.ServerTiming(); !regexp.MustCompile(`^scan;dur=\d+\.\d{3}, rank;dur=\d+\.\d{3}$`).MatchString(h) {
		t.Fatalf("Server-Timing %q", h)
	}

	acc := new(Record)
	acc.Add(r)
	acc.Add(r)
	var stats map[string]struct {
		Count int64   `json:"count"`
		Ms    float64 `json:"ms"`
	}
	if err := json.Unmarshal([]byte(acc.String()), &stats); err != nil {
		t.Fatalf("%s: %v", acc.String(), err)
	}
	if len(stats) != 2 || stats["scan"].Count != 16 || stats["rank"].Count != 2 || stats["scan"].Ms < 16 {
		t.Fatalf("folded stats %+v", stats)
	}
	if s := new(Record).String(); s != "{}" {
		t.Fatalf("an empty Record renders %q", s)
	}
}
