package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("std %f", s.Std)
	}
	if s.Median != 3 {
		t.Errorf("median %f", s.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary %+v", z)
	}
}

func TestSummarizeBoundsProperty(t *testing.T) {
	f := func(ys []float64) bool {
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) || math.Abs(y) > 1e100 {
				return true // out of the domain the toolkit is used for
			}
		}
		if len(ys) == 0 {
			return true
		}
		s := Summarize(ys)
		return s.Min <= s.Mean && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeriodicityDetectsPeriod(t *testing.T) {
	var periodic, aperiodic []float64
	for i := 0; i < 128; i++ {
		periodic = append(periodic, float64(i%8))
		aperiodic = append(aperiodic, float64(i%7)+float64(i%11))
	}
	if p := Periodicity(periodic, 8); p < 0.99 {
		t.Errorf("period-8 signal scored %f", p)
	}
	if p := Periodicity(periodic, 5); p > 0.5 {
		t.Errorf("wrong period scored %f", p)
	}
	if p := Periodicity(aperiodic, 8); p > 0.8 {
		t.Errorf("aperiodic signal scored %f at period 8", p)
	}
	if Periodicity(periodic, 0) != 0 {
		t.Error("period 0 must score 0")
	}
}

func TestRelVariation(t *testing.T) {
	if v := RelVariation([]float64{10, 10, 10}); v != 0 {
		t.Errorf("flat variation %f", v)
	}
	if v := RelVariation([]float64{5, 15}); v != 1 {
		t.Errorf("variation %f, want 1", v)
	}
}

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Errorf("series %+v", s)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, "n", []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv %q", buf.String())
	}
	if lines[0] != "n,a,b" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "1,10.0000,30.0000" {
		t.Errorf("row %q", lines[1])
	}
}

func TestPlotRuns(t *testing.T) {
	var buf bytes.Buffer
	Plot(&buf, "demo", []Series{{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}}, 20, 8)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "o") {
		t.Errorf("plot output %q", out)
	}
	buf.Reset()
	Plot(&buf, "empty", nil, 20, 8)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty plot not flagged")
	}
}
