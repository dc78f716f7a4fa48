// Package benchfmt parses `go test -bench` output and defines the JSON
// baseline document committed as BENCH_PR*.json. It is shared by
// cmd/benchjson (which writes baselines) and cmd/benchgate (which diffs a
// fresh run against a committed baseline to catch performance regressions).
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name has the -N GOMAXPROCS suffix stripped; Procs holds it.
	Name        string  `json:"name"`
	Procs       int     `json:"-"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "req/s").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the emitted document.
type Baseline struct {
	GoVersion string `json:"go_version"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	// GoMaxProcs is the GOMAXPROCS the benchmarks ran at.
	GoMaxProcs int               `json:"gomaxprocs"`
	Meta       map[string]string `json:"meta,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

// Load reads a baseline document from a JSON file written by cmd/benchjson.
func Load(path string) (Baseline, error) {
	var doc Baseline
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Parse extracts benchmark result lines from a Go benchmark log.
// Non-benchmark lines are ignored.
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
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := SplitProcs(fields[0])
		res := Result{Name: name, Procs: procs, Iterations: iters}
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
				b := int64(v)
				res.BytesPerOp = &b
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
