// Package viz renders the dashboard's scatterplots as ASCII, for the CLI
// and the examples, which print the paper's figures into the terminal.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Point is one plotted mark.
type Point struct {
	X, Y float64
	// Class selects the mark style: 0 normal, 1 highlighted/suspect,
	// 2 secondary series.
	Class int
}

// Plot is a single scatter/line chart specification.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Points []Point
	// Width and Height are output dimensions in runes (default 100x24).
	Width, Height int
}

func (p *Plot) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, pt := range p.Points {
		if pt.X < xmin {
			xmin = pt.X
		}
		if pt.X > xmax {
			xmax = pt.X
		}
		if pt.Y < ymin {
			ymin = pt.Y
		}
		if pt.Y > ymax {
			ymax = pt.Y
		}
	}
	if len(p.Points) == 0 {
		return 0, 1, 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	// 5% padding.
	xpad, ypad := (xmax-xmin)*0.05, (ymax-ymin)*0.05
	return xmin - xpad, xmax + xpad, ymin - ypad, ymax + ypad
}

// ASCII renders the plot as a text grid with axes, one character per
// point ('·' normal, '#' highlighted, 'o' secondary).
func (p *Plot) ASCII() string {
	w, h := p.Width, p.Height
	if w <= 0 || w > 400 {
		w = 100
	}
	if h <= 0 || h > 200 {
		h = 24
	}
	xmin, xmax, ymin, ymax := p.bounds()
	grid := make([][]rune, h)
	for i := range grid {
		grid[i] = make([]rune, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	marks := []rune{'.', '#', 'o'}
	for _, pt := range p.Points {
		x := int((pt.X - xmin) / (xmax - xmin) * float64(w-1))
		y := int((1 - (pt.Y-ymin)/(ymax-ymin)) * float64(h-1))
		if x < 0 || x >= w || y < 0 || y >= h {
			continue
		}
		m := marks[pt.Class%len(marks)]
		// Highlighted marks win collisions.
		if grid[y][x] == ' ' || m == '#' {
			grid[y][x] = m
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yLo, yHi := trimNum(ymin), trimNum(ymax)
	for i, row := range grid {
		label := "        "
		if i == 0 {
			label = pad8(yHi)
		} else if i == h-1 {
			label = pad8(yLo)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 8) + "+" + strings.Repeat("-", w) + "\n")
	fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat(" ", 9), trimNum(xmin),
		strings.Repeat(" ", maxInt(1, w-len(trimNum(xmin))-len(trimNum(xmax))))+trimNum(xmax))
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "         x: %s   y: %s\n", p.XLabel, p.YLabel)
	}
	return b.String()
}

func trimNum(f float64) string {
	if math.Abs(f) >= 10000 || (math.Abs(f) < 0.01 && f != 0) {
		return fmt.Sprintf("%.3g", f)
	}
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

func pad8(s string) string {
	if len(s) >= 8 {
		return s[:8]
	}
	return strings.Repeat(" ", 8-len(s)) + s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
