// Command bench is the end-to-end benchmark of the DBWipes server: it
// builds and starts the real cmd/dbwipes, drives it closed-loop over
// HTTP with seeded scripts, checks every response against an
// in-process oracle, and prints every metric by name with its unit.
// README.md in this directory is the manual.
//
//	go run -C bench . -workload intel_session -seed 1            # end to end
//	go run -C bench . -workload all -seed 1 -runs 5 -out a.json  # a result file
//	go run -C bench . -workload scan_mix -seed 1 -trace 1        # per layer
//	go run -C bench . -compare a.json b.json                     # judge two files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is the measured window BENCHMARK.json fixes.
const defaultSeconds = 10

func main() {
	name := flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the fixtures and every literal of the scripts")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics from an in-process replay, span files under out/")
	runs := flag.Int("runs", 1, "repeat each workload this many times; the result file carries every run, median and quartiles")
	out := flag.String("out", "", "write the result file here (JSON)")
	compare := flag.Bool("compare", false, "judge two result files: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		todo = []*workload{w}
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	h := &harness{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		fatal(err)
	}
	// An interrupt cancels the run; every path out of a run stops the
	// server and removes its directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	file := newResultFile(root, *seed, *seconds, *trace == 1)
	for _, w := range todo {
		for i := 0; i < *runs; i++ {
			var res *runResult
			if *trace == 1 {
				res, err = h.runTraced(ctx, w, *seed, *seconds)
			} else {
				res, err = h.run(ctx, w, *seed, *seconds)
			}
			if err != nil {
				stop()
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			file.add(res)
			printRun(res) // a run with failures still exits 0: its verdict is in the output
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printRun prints every metric of a run by name with its unit, the
// failures by request index, and as the last line the JSON object the
// driver reads: exactly the gated metrics of the run's kind.
func printRun(res *runResult) {
	fmt.Printf("== %s seed=%d seconds=%d trace=%v: %d requests, %d failed\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := res.Metrics[name]
		n := ""
		if mv.N > 0 {
			n = fmt.Sprintf("  (n=%d)", mv.N)
		}
		fmt.Printf("%-36s %14.4f %s%s\n", name, mv.Value, mv.Unit, n)
	}
	sizes := make([]string, 0, len(res.Sizes))
	for k, v := range res.Sizes {
		sizes = append(sizes, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(sizes)
	fmt.Println("sizes:", strings.Join(sizes, " "))
	for _, f := range res.Failures {
		fmt.Printf("FAILED client %d request %d (%s): %s\n", f.Client, f.Index, f.Op, f.Why)
	}
	if res.Note != "" {
		fmt.Println("NOTE:", res.Note)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		if d.Gate && d.Layer == res.Trace {
			mv := res.Metrics[d.Name]
			line.Metrics[d.Name] = metric{Value: mv.Value, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
