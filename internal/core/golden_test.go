package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/errmetric"
	"repro/internal/exec"
	"repro/internal/sqlparse"
)

// The golden rankings pin what Debug answers, bit for bit, across
// commits: bench/'s oracle runs the same code as the server, so it
// cannot see a ranking that changed on both sides. The file was
// generated at commit 14b331e (before the learners moved onto the
// shared learning frame) and is regenerated only with
// `go test ./internal/core -run TestGoldenRankings -update`.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_rankings.json from the current code")

const goldenPath = "testdata/golden_rankings.json"

type goldenExplanation struct {
	Pred      string `json:"pred"`
	ScoreBits string `json:"score_bits"` // math.Float64bits, hex
	Candidate string `json:"candidate"`
}

type goldenCase struct {
	EpsBits      string              `json:"eps_bits"`
	LenF         int                 `json:"len_f"`
	LenDPrime    int                 `json:"len_dprime"`
	DPrimeFNV    string              `json:"dprime_fnv"` // FNV-1a over the row ids, in order
	Candidates   int                 `json:"candidates"`
	Explanations []goldenExplanation `json:"explanations"`
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func rowsFNV(rows []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		for i := range buf {
			buf[i] = byte(uint64(r) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenOf(dr *DebugResult) goldenCase {
	g := goldenCase{
		EpsBits: bitsHex(dr.Eps), LenF: len(dr.F),
		LenDPrime: len(dr.DPrime), DPrimeFNV: rowsFNV(dr.DPrime),
		Candidates: dr.Candidates,
	}
	for _, e := range dr.Explanations {
		g.Explanations = append(g.Explanations, goldenExplanation{
			Pred: e.Pred.String(), ScoreBits: bitsHex(e.Score), Candidate: e.Candidate,
		})
	}
	return g
}

// goldenWalkthrough is one executed query with its suspect and example
// selections.
type goldenWalkthrough struct {
	name     string
	short    bool // also runs under -short (and therefore -race)
	res      *exec.Result
	suspect  []int
	examples []int
	metric   errmetric.Metric
}

func goldenWalkthroughs(t *testing.T) []goldenWalkthrough {
	t.Helper()
	build := func(name string, short bool, db *engine.DB, sql, suspectCol string, suspect func(float64) bool, examples string, metric errmetric.Metric) goldenWalkthrough {
		// Two shards whatever the box: a float aggregate's last bits follow
		// the shard geometry, which otherwise follows GOMAXPROCS.
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		src, err := db.Table(stmt.From)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := exec.RunOnWithCtx(context.Background(), src, stmt, exec.Options{Shards: 2})
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		s, err := SuspectWhere(res, suspectCol, func(v engine.Value) bool { return !v.IsNull() && suspect(v.Float()) })
		if err != nil || len(s) == 0 {
			t.Fatalf("%s: suspect: %v (%d groups)", name, err, len(s))
		}
		ex, err := ExamplesWhere(res, s, examples)
		if err != nil || len(ex) == 0 {
			t.Fatalf("%s: examples: %v (%d rows)", name, err, len(ex))
		}
		return goldenWalkthrough{name: name, short: short, res: res, suspect: s, examples: ex, metric: metric}
	}
	var out []goldenWalkthrough
	for _, seed := range []int64{1, 7} {
		if testing.Short() && seed != 1 {
			continue
		}
		db, _ := datasets.IntelDB(datasets.IntelConfig{Rows: 100_000, Seed: seed})
		out = append(out, build(fmt.Sprintf("intel-seed%d", seed), seed == 1, db, datasets.IntelWindowSQL,
			"std_temp", func(f float64) bool { return f > 10 }, "temperature > 100", errmetric.TooHigh{C: 70}))
	}
	db, _ := datasets.FECDB(datasets.FECConfig{Seed: 7})
	out = append(out, build("fec-seed7", true, db, datasets.FECDailySQL("McCain"),
		"total", func(f float64) bool { return f < 0 }, "amount < 0", errmetric.TooLow{C: 0}))
	return out
}

// TestGoldenRankings runs every walkthrough × {examples, no examples} ×
// {kmeans, bayes, none} × {MaxLearnRows default, uncapped} and compares
// predicate strings, score bits, |F|, D', the candidate count and ε
// against the checked-in goldens. Short mode keeps the default-cap
// cases of one Intel seed and FEC.
func TestGoldenRankings(t *testing.T) {
	got := map[string]goldenCase{}
	for _, w := range goldenWalkthroughs(t) {
		for _, withExamples := range []bool{true, false} {
			for _, method := range []string{"kmeans", "bayes", "none"} {
				for _, learnRows := range []int{0, -1} { // 0 = default cap; -1 = keep everything
					if testing.Short() && (!w.short || learnRows != 0) {
						continue
					}
					name := fmt.Sprintf("%s/examples=%v/%s/maxlearn=%d", w.name, withExamples, method, learnRows)
					req := DebugRequest{
						Result: w.res, AggItem: -1, Suspect: w.suspect, Metric: w.metric,
						Opt: Options{CleanMethod: method, MaxLearnRows: learnRows},
					}
					if withExamples {
						req.Examples = w.examples
					}
					dr, err := Debug(req)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got[name] = goldenOf(dr)
				}
			}
		}
	}

	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full matrix: run without -short")
		}
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update): %v", err)
	}
	want := map[string]goldenCase{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("ran %d cases, goldens hold %d", len(got), len(want))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", " ")
			wj, _ := json.MarshalIndent(w, "", " ")
			t.Errorf("%s: ranking changed\n got: %s\nwant: %s", name, gj, wj)
		}
	}
}
