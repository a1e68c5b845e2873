// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON document on stdout, so two trees' microbenchmark runs can
// be diffed (make bench-json). Repeated lines of one benchmark (`-count N`) fold into
// one entry: every figure is the median over the runs, and
// ns_per_op_iqr carries the spread. Lines that are not benchmark results
// pass through to stderr untouched, keeping failures visible.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -count 6 . | go run ./cmd/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark: a single result line, or the fold of its
// repeated runs.
type Bench struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iters is the measured iteration count.
	Iters int64 `json:"iters"`
	// NsPerOp is nanoseconds per operation (median over Runs).
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpIQR is the distance between the quartiles of the runs'
	// ns/op — the run-to-run noise a difference must exceed to count.
	NsPerOpIQR float64 `json:"ns_per_op_iqr,omitempty"`
	// Runs is the number of result lines folded in (omitted for one).
	Runs int `json:"runs,omitempty"`
	// BytesPerOp is allocated bytes per operation (-benchmem).
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is allocations per operation (-benchmem).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom testing.B.ReportMetric values by unit (e.g.
	// retained_MB for the retention benchmarks).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	var doc Doc
	runs := map[string][]Bench{} // result lines by benchmark name
	var order []string           // names in first-appearance order
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				if _, seen := runs[b.Name]; !seen {
					order = append(order, b.Name)
				}
				runs[b.Name] = append(runs[b.Name], b)
			} else {
				fmt.Fprintln(os.Stderr, line)
			}
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, name := range order {
		doc.Benchmarks = append(doc.Benchmarks, fold(runs[name]))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench parses one result line, e.g.
//
//	BenchmarkFoo/rows=100-8   5   16689573 ns/op   2836403 B/op   1049 allocs/op
func parseBench(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Bench{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix (absent when GOMAXPROCS=1).
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iters: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[fields[i+1]] = v
		}
	}
	return b, true
}

// fold merges the repeated runs of one benchmark: each figure becomes
// its median over the runs, plus the interquartile distance of ns/op. A
// single run is returned as is.
func fold(runs []Bench) Bench {
	if len(runs) == 1 {
		return runs[0]
	}
	field := func(get func(Bench) float64) []float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = get(r)
		}
		return vals
	}
	median := func(get func(Bench) float64) float64 {
		_, med, _ := quartiles(field(get))
		return med
	}
	q1, med, q3 := quartiles(field(func(b Bench) float64 { return b.NsPerOp }))
	out := Bench{
		Name: runs[0].Name, Runs: len(runs), NsPerOp: med, NsPerOpIQR: q3 - q1,
		Iters:       int64(median(func(b Bench) float64 { return float64(b.Iters) })),
		BytesPerOp:  int64(median(func(b Bench) float64 { return float64(b.BytesPerOp) })),
		AllocsPerOp: int64(median(func(b Bench) float64 { return float64(b.AllocsPerOp) })),
	}
	for unit := range runs[0].Extra {
		if out.Extra == nil {
			out.Extra = make(map[string]float64)
		}
		out.Extra[unit] = median(func(b Bench) float64 { return b.Extra[unit] })
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of
// two or more values by the rule bench/ judges its own runs with
// (Python's statistics.quantiles(vals, n=4), "exclusive").
func quartiles(vals []float64) (q1, med, q3 float64) {
	n := len(vals)
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of the three cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // outside [0,4] when j was clamped: extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
