package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// summary is one metric of one workload over the runs of a file.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per run, in run order
}

// workloadRuns is everything a result file holds on one workload.
type workloadRuns struct {
	Why     string             `json:"why"`
	Runs    []*runResult       `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// resultFile is what -out writes and -compare reads. It records where
// and how the numbers were taken, so two files can be told apart.
type resultFile struct {
	Commit     string                   `json:"commit"`
	GoVersion  string                   `json:"go_version"`
	NumCPU     int                      `json:"nproc"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Seed       int64                    `json:"seed"`
	Seconds    int                      `json:"seconds"`
	Trace      bool                     `json:"trace"`
	Rounds     int                      `json:"rounds"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

func newResultFile(root string, seed int64, seconds int, trace bool) *resultFile {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultFile{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Trace: trace, Rounds: rounds,
		Workloads: map[string]*workloadRuns{},
	}
}

func (f *resultFile) add(res *runResult) {
	wr := f.Workloads[res.Workload]
	if wr == nil {
		w, _ := workloadByName(res.Workload)
		wr = &workloadRuns{Why: w.why}
		f.Workloads[res.Workload] = wr
	}
	wr.Runs = append(wr.Runs, res)
	wr.Summary = map[string]summary{}
	for name, mv := range res.Metrics {
		var vals []float64
		for _, r := range wr.Runs {
			if v, ok := r.Metrics[name]; ok {
				vals = append(vals, v.Value)
			}
		}
		q1, med, q3 := quartiles(vals)
		wr.Summary[name] = summary{Unit: mv.Unit, Median: med, Q1: q1, Q3: q3, Values: vals}
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
