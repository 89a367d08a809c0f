// Package stats holds the small numerical and reporting toolkit used by
// the figure harnesses: (x, y) series, summary statistics, shape metrics
// (periodicity, sawtooth), CSV and markdown emission, and a plain-text
// plot for terminal inspection of regenerated figures.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Summary describes the distribution of a sample.
type Summary struct {
	N                 int
	Min, Max          float64
	Mean, Std, Median float64
}

// Summarize computes summary statistics of ys. An empty sample returns the
// zero Summary.
func Summarize(ys []float64) Summary {
	if len(ys) == 0 {
		return Summary{}
	}
	s := Summary{N: len(ys), Min: ys[0], Max: ys[0]}
	var sum float64
	for _, y := range ys {
		if y < s.Min {
			s.Min = y
		}
		if y > s.Max {
			s.Max = y
		}
		sum += y
	}
	s.Mean = sum / float64(len(ys))
	var v float64
	for _, y := range ys {
		d := y - s.Mean
		v += d * d
	}
	s.Std = math.Sqrt(v / float64(len(ys)))
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	s.Median = sorted[len(sorted)/2]
	return s
}

// Periodicity measures how strongly ys repeats with the given period (in
// sample indices): 1 - mean|y[i]-y[i+p]| / mean|y[i]-mean|. Values near 1
// mean strong periodicity; near or below 0, none. It is the shape metric
// used to verify the "striking periodicity of 64" in Fig. 2.
func Periodicity(ys []float64, period int) float64 {
	if period <= 0 || len(ys) <= period {
		return 0
	}
	sm := Summarize(ys)
	if sm.Std == 0 {
		return 1
	}
	var dev float64
	n := 0
	for i := 0; i+period < len(ys); i++ {
		dev += math.Abs(ys[i] - ys[i+period])
		n++
	}
	dev /= float64(n)
	var spread float64
	for _, y := range ys {
		spread += math.Abs(y - sm.Mean)
	}
	spread /= float64(len(ys))
	if spread == 0 {
		return 1
	}
	return 1 - dev/spread
}

// RelVariation returns (max-min)/mean of a sample, the "jitter" metric for
// sawtooth detection in Figs. 6 and 7. Empty or zero-mean samples return 0.
func RelVariation(ys []float64) float64 {
	s := Summarize(ys)
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Mean
}

// WriteCSV emits the series as one CSV table. All series must share X; the
// header is "x,name1,name2,...". Series of different lengths are emitted up
// to the shortest.
func WriteCSV(w io.Writer, xlabel string, series []Series) error {
	if len(series) == 0 {
		return nil
	}
	n := series[0].Len()
	for _, s := range series[1:] {
		if s.Len() < n {
			n = s.Len()
		}
	}
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%g", series[0].X[i])}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.4f", s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Plot renders the series as a plain-text scatter plot of the given size.
// It is deliberately crude — just enough to eyeball the regenerated figure
// shapes in a terminal.
func Plot(w io.Writer, title string, series []Series, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if first {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "ox+*#@%&"
	for si, s := range series {
		m := marks[si%len(marks)]
		for i := range s.X {
			c := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			r := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			grid[r][c] = m
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "y: [%.3g, %.3g]\n", ymin, ymax)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s|\n", row)
	}
	fmt.Fprintf(w, "x: [%.4g, %.4g]   ", xmin, xmax)
	for si, s := range series {
		fmt.Fprintf(w, "%c=%s ", marks[si%len(marks)], s.Name)
	}
	fmt.Fprintln(w)
}
