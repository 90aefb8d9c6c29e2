package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSeriesAddAndLast(t *testing.T) {
	s := NewSeries("gini")
	if !math.IsNaN(s.Last()) {
		t.Error("empty series Last should be NaN")
	}
	s.Add(0, 0.1)
	s.Add(10, 0.2)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Last() != 0.2 {
		t.Errorf("Last = %v", s.Last())
	}
}

func TestSeriesTail(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if got := s.Tail(4); math.Abs(got-8.5) > 1e-12 {
		t.Errorf("Tail(4) = %v, want 8.5", got)
	}
	if got := s.Tail(100); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("Tail(100) = %v, want full mean 5.5", got)
	}
	empty := NewSeries("e")
	if !math.IsNaN(empty.Tail(3)) {
		t.Error("empty Tail should be NaN")
	}
}

func TestSortedSnapshot(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedSnapshot(in)
	if out[0] != 1 || out[2] != 3 {
		t.Errorf("sorted = %v", out)
	}
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestTableAlignment(t *testing.T) {
	tab := Table{Header: []string{"name", "value"}}
	tab.AddRow("x", "1")
	tab.AddFloats("gini", 0.51234, 2)
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "0.5123") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	if !strings.Contains(out, "----") {
		t.Errorf("missing header rule:\n%s", out)
	}
	// Integral floats format without decimals.
	if !strings.Contains(out, " 2") {
		t.Errorf("integer float misformatted:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := FormatFloat(math.NaN()); got != "n/a" {
		t.Errorf("NaN = %q", got)
	}
	if got := FormatFloat(3); got != "3" {
		t.Errorf("3 = %q", got)
	}
	if got := FormatFloat(0.123456); got != "0.1235" {
		t.Errorf("0.123456 = %q", got)
	}
}

func TestChartRender(t *testing.T) {
	var set Set
	up := NewSeries("up")
	down := NewSeries("down")
	for i := 0; i <= 10; i++ {
		up.Add(float64(i), float64(i))
		down.Add(float64(i), float64(10-i))
	}
	set.Add(up)
	set.Add(down)
	var buf bytes.Buffer
	if err := (Chart{Width: 40, Height: 10}).Render(&buf, &set); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("chart missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Errorf("chart missing legend:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	var set Set
	var buf bytes.Buffer
	if err := (Chart{}).Render(&buf, &set); !errors.Is(err, ErrEmptySeries) {
		t.Errorf("error = %v, want ErrEmptySeries", err)
	}
}

func TestChartFixedRange(t *testing.T) {
	var set Set
	s := NewSeries("g")
	s.Add(0, 0.5)
	set.Add(s)
	var buf bytes.Buffer
	if err := (Chart{Width: 20, Height: 5, YMin: 0, YMax: 1}).Render(&buf, &set); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.000") {
		t.Errorf("fixed range not applied:\n%s", buf.String())
	}
}
