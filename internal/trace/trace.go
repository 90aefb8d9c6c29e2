// Package trace records simulation metrics as named time series and renders
// them as aligned text tables and ASCII line charts — the offline
// stand-ins for the paper's figures.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ErrEmptySeries is returned when rendering has nothing to draw.
var ErrEmptySeries = errors.New("trace: empty series")

// Series is one named time series.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Add appends an observation.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Times) }

// Last returns the most recent value, or NaN when empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Values[len(s.Values)-1]
}

// Tail returns the mean of the last k values (the "stabilized" level of a
// converged series); fewer than k values average what is there.
func (s *Series) Tail(k int) float64 {
	n := len(s.Values)
	if n == 0 {
		return math.NaN()
	}
	if k > n {
		k = n
	}
	var sum float64
	for _, v := range s.Values[n-k:] {
		sum += v
	}
	return sum / float64(k)
}

// Set is an ordered collection of series sharing an x-axis meaning.
type Set struct {
	Series []*Series
}

// Add appends a series to the set.
func (set *Set) Add(s *Series) { set.Series = append(set.Series, s) }

// SortedSnapshot returns values sorted ascending — the paper's Figs. 5–6
// plot these per-peer curves ("peer indices sorted in the order of queue
// length").
func SortedSnapshot(values []float64) []float64 {
	out := make([]float64, len(values))
	copy(out, values)
	sort.Float64s(out)
	return out
}

// Table renders rows of cells as an aligned monospace table.
type Table struct {
	Header []string
	rows   [][]string
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddFloats appends a row with a label and formatted float cells.
func (t *Table) AddFloats(label string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, FormatFloat(v))
	}
	t.rows = append(t.rows, cells)
}

// FormatFloat renders a float compactly with 4 significant decimals.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	if len(t.Header) > 0 {
		if err := writeRow(t.Header); err != nil {
			return err
		}
		var b strings.Builder
		for i, width := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", width))
		}
		b.WriteString("\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Chart renders a set of series as an ASCII line chart with one glyph per
// series, a y-axis scale and a legend. Width and Height are the plot-area
// dimensions in characters.
type Chart struct {
	Width  int
	Height int
	// YMin/YMax fix the y range; when both zero the range is data-driven.
	YMin, YMax float64
}

var chartGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '~'}

// Render draws the chart.
func (c Chart) Render(w io.Writer, set *Set) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	var tMin, tMax, yMin, yMax float64
	tMin, yMin = math.Inf(1), math.Inf(1)
	tMax, yMax = math.Inf(-1), math.Inf(-1)
	points := 0
	for _, s := range set.Series {
		for i := range s.Times {
			points++
			tMin = math.Min(tMin, s.Times[i])
			tMax = math.Max(tMax, s.Times[i])
			yMin = math.Min(yMin, s.Values[i])
			yMax = math.Max(yMax, s.Values[i])
		}
	}
	if points == 0 {
		return ErrEmptySeries
	}
	if c.YMin != 0 || c.YMax != 0 {
		yMin, yMax = c.YMin, c.YMax
	}
	if yMax <= yMin {
		yMax = yMin + 1
	}
	if tMax <= tMin {
		tMax = tMin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range set.Series {
		glyph := chartGlyphs[si%len(chartGlyphs)]
		for i := range s.Times {
			x := int((s.Times[i] - tMin) / (tMax - tMin) * float64(width-1))
			y := int((s.Values[i] - yMin) / (yMax - yMin) * float64(height-1))
			if x < 0 || x >= width || y < 0 || y >= height {
				continue
			}
			grid[height-1-y][x] = glyph
		}
	}
	for r, rowBytes := range grid {
		yVal := yMax - (yMax-yMin)*float64(r)/float64(height-1)
		label := fmt.Sprintf("%8.3f |", yVal)
		if _, err := fmt.Fprintf(w, "%s%s\n", label, rowBytes); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s+%s\n", strings.Repeat(" ", 9), strings.Repeat("-", width)); err != nil {
		return err
	}
	lo, hi := FormatFloat(tMin), FormatFloat(tMax)
	if _, err := fmt.Fprintf(w, "%10s%-12s%s%12s\n", "", lo, strings.Repeat(" ", maxInt(0, width-24)), hi); err != nil {
		return err
	}
	for si, s := range set.Series {
		if _, err := fmt.Fprintf(w, "  %c %s\n", chartGlyphs[si%len(chartGlyphs)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
