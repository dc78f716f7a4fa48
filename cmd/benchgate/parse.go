package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name has the -N GOMAXPROCS suffix stripped; Procs holds it.
	Name    string
	Procs   int
	NsPerOp float64
	// AllocsPerOp is nil when the log was written without -benchmem.
	AllocsPerOp *int64
	// Extra holds custom b.ReportMetric units (e.g. "req/s").
	Extra map[string]float64
}

// Run is one benchmark log, measured at a single GOMAXPROCS.
type Run struct {
	GoMaxProcs int
	Benchmarks []Result
}

// load reads a `go test -bench` log. Every benchmark in it must have run
// at the same GOMAXPROCS, because the gate refuses to compare runs at
// different CPU counts.
func load(path string) (Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return Run{}, err
	}
	defer f.Close()
	results, err := Parse(f)
	if err != nil {
		return Run{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(results) == 0 {
		return Run{}, fmt.Errorf("%s: no benchmark lines", path)
	}
	run := Run{GoMaxProcs: results[0].Procs, Benchmarks: results}
	for _, r := range results {
		if r.Procs != run.GoMaxProcs {
			return Run{}, fmt.Errorf("%s: benchmarks ran at GOMAXPROCS %d and %d; gate one CPU count per log",
				path, run.GoMaxProcs, r.Procs)
		}
	}
	return run, nil
}

// Parse extracts benchmark result lines from a Go benchmark log.
// Non-benchmark lines (goos:, pkg:, PASS, ok ...) are ignored.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Minimum: Name Iterations Value "ns/op".
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		name, procs := SplitProcs(fields[0])
		res := Result{Name: name, Procs: procs}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				// Not gated: bytes follow allocation count.
			case "allocs/op":
				a := int64(v)
				res.AllocsPerOp = &a
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[fields[i+1]] = v
			}
		}
		if ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// SplitProcs splits the -N GOMAXPROCS suffix off a benchmark name. Go
// appends none when GOMAXPROCS is 1, so a bare name reports 1.
func SplitProcs(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}
