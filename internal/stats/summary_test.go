package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 2.5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("Median = %v", s.Median)
	}
	if math.Abs(s.Var-1.25) > 1e-12 {
		t.Errorf("Var = %v", s.Var)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("error = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 50},
		{0.5, 30},
		{0.25, 20},
		{0.125, 15},
	}
	for _, tc := range tests {
		if got := Quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]float64, len(raw))
		for i, v := range raw {
			values[i] = float64(v)
		}
		s, err := Summarize(values)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Var >= 0 && s.P90 <= s.Max && s.P90 >= s.Median-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
