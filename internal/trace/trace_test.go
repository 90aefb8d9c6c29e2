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

func TestWriteCSV(t *testing.T) {
	var set Set
	s := NewSeries("a")
	s.Add(1, 0.5)
	s.Add(2, 0.75)
	set.Add(s)
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3: %q", len(lines), buf.String())
	}
	if lines[0] != "series,time,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "a,1,0.5" {
		t.Errorf("row = %q", lines[1])
	}
}

// TestCSVRoundTrip pins the WriteCSV/ReadCSV pair: a multi-series set with
// awkward float values must survive the trip bit-for-bit (the 'g'/-1
// format is shortest-roundtrip), preserving series order and lengths.
func TestCSVRoundTrip(t *testing.T) {
	var set Set
	a := NewSeries("gini")
	a.Add(0, 0.1)
	a.Add(0.30000000000000004, 1.0/3.0)
	a.Add(1e9, 5e-324)
	b := NewSeries("population")
	b.Add(2.5, 1000)
	b.Add(3.75, 999.5)
	set.Add(a)
	set.Add(b)
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 2 {
		t.Fatalf("series count = %d, want 2", len(got.Series))
	}
	for i, want := range set.Series {
		g := got.Series[i]
		if g.Name != want.Name {
			t.Fatalf("series %d name %q, want %q", i, g.Name, want.Name)
		}
		if g.Len() != want.Len() {
			t.Fatalf("series %q length %d, want %d", g.Name, g.Len(), want.Len())
		}
		for j := range want.Times {
			if g.Times[j] != want.Times[j] || g.Values[j] != want.Values[j] {
				t.Fatalf("series %q sample %d = (%v, %v), want (%v, %v)",
					g.Name, j, g.Times[j], g.Values[j], want.Times[j], want.Values[j])
			}
		}
	}
}

// TestCSVRoundTripEmpty round-trips a set with no observations.
func TestCSVRoundTripEmpty(t *testing.T) {
	var set Set
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 0 {
		t.Fatalf("series = %d, want 0", len(got.Series))
	}
}

// TestReadCSVRejectsGarbage pins the error paths — wrong header, malformed
// numbers, wrong field counts, empty input — and demands each error carry
// the 1-based line number and the offending token, so a bad row in a
// million-line file is findable from the message alone.
func TestReadCSVRejectsGarbage(t *testing.T) {
	header := "series,time,value\n"
	cases := map[string]struct {
		in       string
		wantSubs []string
	}{
		"empty-input":   {"", []string{"line 1", "empty input"}},
		"bad-header":    {"a,b,c\nx,1,2\n", []string{"line 1", "unexpected header"}},
		"short-row":     {header + "x,1,2\nx,1\n", []string{"line 3", "2 fields, want 3"}},
		"long-row":      {header + "x,1,2,extra\n", []string{"line 2", "4 fields, want 3"}},
		"bad-time":      {header + "x,1,2\nx,notanumber,2\n", []string{"line 3", `time "notanumber"`}},
		"bad-value":     {header + "x,1,nope\n", []string{"line 2", `value "nope"`}},
		"deep-bad-time": {header + "x,1,2\nx,2,3\nx,3,4\nx,oops,5\n", []string{"line 5", `time "oops"`}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			for _, sub := range tc.wantSubs {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not mention %q", err, sub)
				}
			}
		})
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

// FuzzReadCSV feeds ReadCSV arbitrary bytes, seeded from a valid trace and
// truncated or odd-field-count variants of it. ReadCSV must never panic,
// and every Set it accepts must hold series whose times and values have
// equal lengths, under distinct names.
func FuzzReadCSV(f *testing.F) {
	set := &Set{}
	for _, name := range []string{"gini", "population", "supply, total"} {
		s := NewSeries(name)
		for i := 0; i < 4; i++ {
			s.Add(float64(i)*2.5, float64(i*i)+0.125)
		}
		set.Add(s)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(valid[:len("series,time,value\n")+3]))
	f.Add([]byte("series,time,value\n"))
	f.Add([]byte("series,time,value\nx,1\n"))
	f.Add([]byte("series,time,value\nx,1,2,3\n"))
	f.Add([]byte("series,time,value\n\"x,1,2\n"))
	f.Add([]byte("series,time,value\nx,NaN,-Inf\nx,1e309,0x1p-2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		names := map[string]bool{}
		for _, s := range got.Series {
			if len(s.Times) != len(s.Values) {
				t.Fatalf("series %q has %d times but %d values", s.Name, len(s.Times), len(s.Values))
			}
			if names[s.Name] {
				t.Fatalf("series %q appears twice", s.Name)
			}
			names[s.Name] = true
		}
	})
}
