package main

import "testing"

func TestFoldMedianAndSpread(t *testing.T) {
	var runs []Bench
	for _, line := range []string{
		"BenchmarkA-2 10 100 ns/op 8 B/op 1 allocs/op 2 retained_MB",
		"BenchmarkA-2 10 120 ns/op 8 B/op 1 allocs/op 4 retained_MB",
		"BenchmarkA-2 12 90 ns/op 16 B/op 3 allocs/op 6 retained_MB",
		"BenchmarkA-2 10 400 ns/op 8 B/op 1 allocs/op 8 retained_MB",
	} {
		b, ok := parseBench(line)
		if !ok || b.Name != "BenchmarkA" {
			t.Fatalf("parse %q: %+v, %v", line, b, ok)
		}
		runs = append(runs, b)
	}
	got := fold(runs)
	// Sorted ns/op 90 100 120 400: median 110, quartiles 92.5 and 330.
	if got.Runs != 4 || got.NsPerOp != 110 || got.NsPerOpIQR != 237.5 {
		t.Errorf("fold: %+v", got)
	}
	if got.Iters != 10 || got.BytesPerOp != 8 || got.AllocsPerOp != 1 || got.Extra["retained_MB"] != 5 {
		t.Errorf("fold medians: %+v", got)
	}
	if one := fold(runs[:1]); one.Runs != 0 || one.NsPerOpIQR != 0 || one.NsPerOp != 100 {
		t.Errorf("a single run must pass through: %+v", one)
	}
}
