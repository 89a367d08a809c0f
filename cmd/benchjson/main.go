// Command benchjson converts `go test -bench` output piped to stdin into a
// machine-readable BENCH_perf.json trajectory: benchmark name → metric →
// value, covering ns/op, B/op, allocs/op and every custom b.ReportMetric
// unit (simcycles/s, accesses/s, GB/s and the BenchmarkResilience
// recovery counters). Input lines are echoed to stdout so the tool is
// transparent in a pipeline:
//
//	go test -run '^$' -bench 'BenchmarkFig' -benchtime 1x -benchmem . \
//	    | go run ./cmd/benchjson -out BENCH_perf.json
//
// When a benchmark appears several times (-count > 1), its metrics are
// averaged. The JSON is canonical (indented, keys sorted), so identical
// sweeps diff cleanly across commits.
//
// Exit codes (see doc.go for the repo-wide conventions):
//
//	0  conversion written
//	1  runtime failure: unreadable input, no benchmark lines, unwritable
//	   output
//	2  flag misuse
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/profiling"
)

// benchLine matches one result line: name, iteration count, then
// value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// cpuSuffix strips the trailing -<GOMAXPROCS> go test appends to names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

type acc struct {
	sums map[string]float64
	n    map[string]int
}

func main() {
	out := flag.String("out", "BENCH_perf.json", "output JSON path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the conversion to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	// fail flushes the profiles before exiting, so a failed conversion
	// still leaves parseable profile files behind.
	fail := func() {
		stopProfiles()
		os.Exit(1)
	}

	results := map[string]*acc{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		a := results[name]
		if a == nil {
			a = &acc{sums: map[string]float64{}, n: map[string]int{}}
			results[name] = a
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			a.sums[unit] += v
			a.n[unit]++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		fail()
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		fail()
	}

	doc := map[string]map[string]float64{}
	for name, a := range results {
		metrics := map[string]float64{}
		for unit, sum := range a.sums {
			metrics[unit] = sum / float64(a.n[unit])
		}
		doc[name] = metrics
	}
	b, err := json.MarshalIndent(map[string]any{"benchmarks": doc}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		fail()
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		fail()
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc), *out)
}
