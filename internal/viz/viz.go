// Package viz renders the dashboard's scatterplots as SVG (for the web
// frontend) and as ASCII (for the CLI, which prints the paper's figures
// into the terminal).
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
	// Lines connects consecutive points of each class when true
	// (Figure 7's daily series reads better as a line).
	Lines bool
	// Width and Height are output dimensions: pixels for SVG, runes for
	// ASCII (defaults 720x400 / 100x28).
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

var svgColors = []string{"#4477aa", "#ee6677", "#228833"}

// SVG renders the plot as a standalone SVG document.
func (p *Plot) SVG() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 720
	}
	if h <= 0 {
		h = 400
	}
	const mL, mR, mT, mB = 60, 15, 30, 40
	plotW, plotH := float64(w-mL-mR), float64(h-mT-mB)
	xmin, xmax, ymin, ymax := p.bounds()
	sx := func(x float64) float64 { return float64(mL) + (x-xmin)/(xmax-xmin)*plotW }
	sy := func(y float64) float64 { return float64(mT) + (1-(y-ymin)/(ymax-ymin))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`, mL, h-mB, w-mR, h-mB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`, mL, mT, mL, h-mB)
	// Ticks.
	for i := 0; i <= 5; i++ {
		xv := xmin + (xmax-xmin)*float64(i)/5
		yv := ymin + (ymax-ymin)*float64(i)/5
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" font-size="10" text-anchor="middle" fill="#555">%s</text>`,
			sx(xv), h-mB+14, trimNum(xv))
		fmt.Fprintf(&b, `<text x="%d" y="%.0f" font-size="10" text-anchor="end" fill="#555">%s</text>`,
			mL-4, sy(yv)+3, trimNum(yv))
		fmt.Fprintf(&b, `<line x1="%.0f" y1="%d" x2="%.0f" y2="%d" stroke="#ccc"/>`, sx(xv), h-mB, sx(xv), h-mB+3)
	}
	// Title and labels.
	if p.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="18" font-size="13" text-anchor="middle" fill="#111">%s</text>`, w/2, escape(p.Title))
	}
	if p.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="middle" fill="#333">%s</text>`, w/2, h-8, escape(p.XLabel))
	}
	if p.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" font-size="11" text-anchor="middle" fill="#333" transform="rotate(-90 14 %d)">%s</text>`, h/2, h/2, escape(p.YLabel))
	}
	// Lines per class.
	if p.Lines {
		byClass := map[int][]Point{}
		for _, pt := range p.Points {
			byClass[pt.Class] = append(byClass[pt.Class], pt)
		}
		for cls, pts := range byClass {
			var path strings.Builder
			for i, pt := range pts {
				cmd := "L"
				if i == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%.1f %.1f", cmd, sx(pt.X), sy(pt.Y))
			}
			fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.2"/>`, path.String(), svgColors[cls%len(svgColors)])
		}
	}
	// Marks.
	for _, pt := range p.Points {
		r := 2.2
		if pt.Class == 1 {
			r = 3.2
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.75"/>`,
			sx(pt.X), sy(pt.Y), r, svgColors[pt.Class%len(svgColors)])
	}
	b.WriteString(`</svg>`)
	return b.String()
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

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
