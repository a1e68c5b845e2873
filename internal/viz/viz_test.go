package viz

import (
	"strings"
	"testing"
)

func samplePlot() *Plot {
	return &Plot{
		Title:  "test plot",
		XLabel: "x",
		YLabel: "y",
		Points: []Point{
			{X: 0, Y: 0}, {X: 1, Y: 10, Class: 1}, {X: 2, Y: 5, Class: 2}, {X: 3, Y: 7},
		},
	}
}

func TestASCIIBasics(t *testing.T) {
	out := samplePlot().ASCII()
	if !strings.Contains(out, "test plot") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "#") {
		t.Error("highlighted mark missing")
	}
	if !strings.Contains(out, "o") {
		t.Error("secondary mark missing")
	}
	if !strings.Contains(out, "x: x   y: y") {
		t.Error("axis labels missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 10 {
		t.Errorf("too few lines: %d", len(lines))
	}
}

func TestEmptyPlot(t *testing.T) {
	p := &Plot{}
	if p.ASCII() == "" {
		t.Error("empty plot should still render axes")
	}
}

func TestSinglePointNoDivZero(t *testing.T) {
	p := &Plot{Points: []Point{{X: 5, Y: 5}}}
	if strings.Contains(p.ASCII(), "NaN") {
		t.Error("NaN in ASCII")
	}
}

func TestHighlightWinsCollision(t *testing.T) {
	p := &Plot{
		Width: 10, Height: 5,
		Points: []Point{{X: 1, Y: 1, Class: 0}, {X: 1, Y: 1, Class: 1}},
	}
	if !strings.Contains(p.ASCII(), "#") {
		t.Error("highlight lost collision")
	}
}

func TestTrimNum(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		2:       "2",
		-3.25:   "-3.25",
		1234567: "1.23e+06",
	}
	for in, want := range cases {
		if got := trimNum(in); got != want {
			t.Errorf("trimNum(%v) = %q, want %q", in, got, want)
		}
	}
}
