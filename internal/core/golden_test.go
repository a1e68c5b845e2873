package core

import (
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
	"repro/internal/errmetric"
)

// The golden rankings pin what Debug answers, bit for bit, across
// commits: bench/'s oracle runs the same code as the server, so it
// cannot see a ranking that changed on both sides. The file is
// regenerated (`go test ./internal/core -run TestGoldenRankings -update`)
// only by a change that moves a default or a summation order, with the
// quality table's before and after rows as its justification
// (CHANGES.md, PR 26: one criterion, one rule grown greedily, one region,
// the classifier cleaner, quantile 0.25, no merge pass).
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

// goldenWalkthrough is one of the quality table's walkthrough questions
// (the scan folds by the table's blocks, so the float bits do not follow
// GOMAXPROCS).
type goldenWalkthrough struct {
	qualityScenario
	short bool // also runs under -short (and therefore -race)
}

func goldenWalkthroughs(t *testing.T) []goldenWalkthrough {
	t.Helper()
	var out []goldenWalkthrough
	for _, seed := range []int64{1, 7} {
		if testing.Short() && seed != 1 {
			continue
		}
		tbl, labels := datasets.Intel(datasets.IntelConfig{Rows: 100_000, Seed: seed})
		out = append(out, goldenWalkthrough{short: seed == 1, qualityScenario: newQualityScenario(t,
			fmt.Sprintf("intel-seed%d", seed), tbl, labels, datasets.IntelWindowSQL,
			"std_temp", func(f float64) bool { return f > 10 }, "temperature > 100", errmetric.TooHigh{C: 70}, "temperature")})
	}
	tbl, labels := datasets.FEC(datasets.FECConfig{Seed: 7})
	out = append(out, goldenWalkthrough{short: true, qualityScenario: newQualityScenario(t,
		"fec-seed7", tbl, labels, datasets.FECDailySQL("McCain"),
		"total", func(f float64) bool { return f < 0 }, "amount < 0", errmetric.TooLow{C: 0}, "amount")})
	return out
}

// TestGoldenRankings runs every walkthrough × {examples, no examples} ×
// {MaxLearnRows default, uncapped} and compares predicate strings, score
// bits, |F|, D', the candidate count and ε against the checked-in
// goldens. Short mode keeps the default-cap cases of one Intel seed and
// FEC.
func TestGoldenRankings(t *testing.T) {
	got := map[string]goldenCase{}
	for _, w := range goldenWalkthroughs(t) {
		for _, withExamples := range []bool{true, false} {
			for _, learnRows := range []int{0, -1} { // 0 = default cap; -1 = keep everything
				if testing.Short() && (!w.short || learnRows != 0) {
					continue
				}
				name := fmt.Sprintf("%s/examples=%v/maxlearn=%d", w.name, withExamples, learnRows)
				req := DebugRequest{
					Result: w.res, AggItem: -1, Suspect: w.suspect, Metric: w.metric,
					Opt: Options{MaxLearnRows: learnRows},
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
