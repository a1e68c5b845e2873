package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// verdict judges one metric of one workload between a baseline file A
// and a candidate file B. Medians decide: B is worse when its median
// is worse than A's by more than the metric's bound, better when it
// is better by more than the bound. When either side's own runs are
// spread (interquartile distance over median) wider than the bound the
// pair cannot be told apart at that bound and is unresolved, whatever
// the medians say. failed_share has bound 0: any increase is worse.
func verdict(d def, a, b summary) string {
	if d.Bound > 0 && len(a.Values) > 1 && len(b.Values) > 1 &&
		(spread(a.Values) > d.Bound || spread(b.Values) > d.Bound) {
		return "unresolved"
	}
	delta := b.Median - a.Median // > 0 is worse for "lower"
	if d.Better == "higher" {
		delta = -delta
	}
	limit := d.Bound * math.Abs(a.Median)
	switch {
	case delta > limit:
		return "worse"
	case delta < -limit:
		return "better"
	}
	return "within-bound"
}

// compareFiles prints one verdict per (workload, end-to-end metric)
// present in both files and reports whether any was worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d\nB: %s  commit %s  seed %d\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "verdict")
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sa, sb := a.Workloads[name].Summary, b.Workloads[name].Summary
		for _, d := range defs {
			va, okA := sa[d.Name]
			vb, okB := sb[d.Name]
			if d.Layer || !okA || !okB {
				continue
			}
			v := verdict(d, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-16s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n", name, d.Name,
				va.Median, vb.Median, 100*share(vb.Median-va.Median, math.Abs(va.Median)), 100*spread(va.Values), 100*spread(vb.Values), v)
		}
	}
	return anyWorse, nil
}
