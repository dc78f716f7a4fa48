// Command benchgate diffs a freshly measured `go test -bench` log against
// a committed baseline log and exits non-zero when any shared metric
// regresses past its tolerance. It is the CI regression gate for the
// gateway token path: `make bench-gate` runs a short fresh pass of
// BenchmarkGatewayFrameReplicas8 and feeds both logs here.
//
// Usage:
//
//	benchgate -baseline BENCH_GATE.txt -current /tmp/fresh.txt
//	benchgate -baseline ... -current ... -tol 0.6 -tol-allocs 0.3
//
// Both files are plain benchmark logs (non-benchmark lines are ignored),
// so refreshing the baseline is one `go test -bench ... > BENCH_GATE.txt`.
//
// Comparison rules:
//
//   - The two logs must have been measured at the same GOMAXPROCS (read
//     off the -N benchmark-name suffix; the gateway benchmarks scale their
//     submitter count with it); otherwise the gate fails without comparing
//     anything.
//   - Only benchmarks present in BOTH logs are compared; extra entries on
//     either side are ignored (so a short CI pass may run a subset).
//   - Throughput metrics ("req/s", "tok/s") are higher-better: current
//     must be >= baseline * (1 - tol).
//   - Timing metrics (ns/op and any *_ms extra) are lower-better: current
//     must be <= baseline * (1 + tol).
//   - allocs/op is lower-better with its own, tighter -tol-allocs bound:
//     allocation counts are deterministic on the hot path, so they get far
//     less slack than wall-clock numbers on noisy CI machines.
//   - Other extra metrics (counters like prefix_transfer_tokens) and B/op
//     are informational and never gate.
//
// Timing tolerances default loose (-tol 0.6) because CI machines are
// shared and single-core; the gate exists to catch structural regressions
// (a 2x slowdown, the alloc-free path growing allocations), not 10% noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline benchmark log (required)")
	currentPath := flag.String("current", "", "freshly measured benchmark log (required)")
	tol := flag.Float64("tol", 0.6, "relative tolerance for timing/throughput metrics")
	tolAllocs := flag.Float64("tol-allocs", 0.3, "relative tolerance for allocs/op")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}

	rows, failures := compare(base, cur, *tol, *tolAllocs)
	for _, row := range rows {
		fmt.Println(row)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchgate: %d check(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks shared between baseline and current")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within tolerance (tol=%.2f, tol-allocs=%.2f)\n",
		len(rows), *tol, *tolAllocs)
}

// higherBetter lists extra-metric units where larger values are better.
var higherBetter = map[string]bool{"req/s": true, "tok/s": true}

// gatedExtra reports whether an extra metric participates in the gate.
// Throughput units and millisecond latencies gate; raw counters do not.
func gatedExtra(unit string) bool {
	return higherBetter[unit] || len(unit) > 3 && unit[len(unit)-3:] == "_ms"
}

// compare diffs every benchmark present in both runs. It returns one
// human-readable row per compared benchmark (one indented line per metric)
// and one failure line per metric outside tolerance.
func compare(base, cur Run, tol, tolAllocs float64) (rows, failures []string) {
	if base.GoMaxProcs != cur.GoMaxProcs {
		return nil, []string{fmt.Sprintf("gomaxprocs differs: baseline %d, current %d (rerun with -cpu %d)",
			base.GoMaxProcs, cur.GoMaxProcs, base.GoMaxProcs)}
	}
	curByName := make(map[string]Result, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		curByName[r.Name] = r
	}
	names := make([]string, 0, len(base.Benchmarks))
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		if _, ok := curByName[r.Name]; ok {
			names = append(names, r.Name)
			byName[r.Name] = r
		}
	}
	sort.Strings(names)

	for _, name := range names {
		b, c := byName[name], curByName[name]
		row := []string{name + ":", fmt.Sprintf("  ns/op %.0f -> %.0f", b.NsPerOp, c.NsPerOp)}
		if bad, msg := lowerBetter(name, "ns/op", b.NsPerOp, c.NsPerOp, tol); bad {
			failures = append(failures, msg)
		}
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			row = append(row, fmt.Sprintf("  allocs/op %d -> %d", *b.AllocsPerOp, *c.AllocsPerOp))
			if bad, msg := lowerBetter(name, "allocs/op",
				float64(*b.AllocsPerOp), float64(*c.AllocsPerOp), tolAllocs); bad {
				failures = append(failures, msg)
			}
		}
		units := make([]string, 0, len(b.Extra))
		for unit := range b.Extra {
			if _, ok := c.Extra[unit]; ok && gatedExtra(unit) {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			bv, cv := b.Extra[unit], c.Extra[unit]
			row = append(row, fmt.Sprintf("  %s %.2f -> %.2f", unit, bv, cv))
			if higherBetter[unit] {
				if cv < bv*(1-tol) {
					failures = append(failures, fmt.Sprintf(
						"%s %s dropped %.2f -> %.2f (floor %.2f)", name, unit, bv, cv, bv*(1-tol)))
				}
			} else if bad, msg := lowerBetter(name, unit, bv, cv, tol); bad {
				failures = append(failures, msg)
			}
		}
		rows = append(rows, strings.Join(row, "\n"))
	}
	return rows, failures
}

// lowerBetter checks a metric where smaller is better. A zero baseline
// (e.g. allocs/op 0 on the pooled path) allows zero slack: any growth at
// all is a regression, because zero-alloc is a structural property, not a
// measurement.
func lowerBetter(name, unit string, base, cur, tol float64) (bool, string) {
	limit := base * (1 + tol)
	if cur > limit {
		return true, fmt.Sprintf("%s %s grew %.2f -> %.2f (limit %.2f)", name, unit, base, cur, limit)
	}
	return false, ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate: "+err.Error())
	os.Exit(1)
}
