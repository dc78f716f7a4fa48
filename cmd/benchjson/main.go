// Command benchjson converts `go test -bench` output into a tracked JSON
// benchmark baseline (BENCH_PR3.json). The file is committed so future
// changes can diff ns/op, allocs/op, and per-experiment wall-clock against a
// known-good snapshot, and CI can archive it as an artifact.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH_PR3.json
//	benchjson -o BENCH_PR3.json -meta note="after flattening trees" bench.out
//
// Input files (or stdin when none are given) are standard Go benchmark
// logs; non-benchmark lines are ignored. Repeated -meta key=value flags
// attach free-form context (machine, scale, wall-clock measurements).
//
// The parser and document schema live in internal/benchfmt, shared with
// cmd/benchgate which diffs a fresh run against a committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"qoserve/internal/benchfmt"
)

// metaFlags collects repeated -meta key=value pairs.
type metaFlags map[string]string

func (m metaFlags) String() string { return "" }

func (m metaFlags) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("expected key=value, got %q", v)
	}
	m[key] = val
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	meta := metaFlags{}
	flag.Var(meta, "meta", "attach key=value metadata (repeatable)")
	flag.Parse()

	var results []benchfmt.Result
	if flag.NArg() == 0 {
		var err error
		results, err = benchfmt.Parse(os.Stdin)
		if err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		rs, err := benchfmt.Parse(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		results = append(results, rs...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	// The document records the GOMAXPROCS the benchmarks ran at, read off
	// their names, so benchgate can refuse to compare runs at different
	// CPU counts.
	procs := 1
	for i, r := range results {
		if i == 0 {
			procs = r.Procs
		} else if r.Procs != procs {
			fatal(fmt.Errorf("benchmarks ran at GOMAXPROCS %d and %d; write one file per CPU count", procs, r.Procs))
		}
	}

	doc := benchfmt.Baseline{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: procs,
		Meta:       meta,
		Benchmarks: results,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
