// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the serving stack, checks that every output is
// correct, and prints its metrics as one JSON line.
//
//	perfbench -workload stream_http -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run; with
// -trace 1 it runs the same workload with the scheduler, predictor and
// balancer wrapped in timing shims and prints the per-layer metrics. See
// README.md for the workloads, the metric definitions and the layer map.
// Run it through run.sh, which builds it and the daemon from the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workloadFn runs one workload and reports its result. A returned error
// means the benchmark itself could not run (no result is printed); a
// failed correctness check or validity guard is reported in the result.
type workloadFn func(env *env) (*result, error)

var workloads = map[string]workloadFn{
	"stream_http":    runStreamHTTP,
	"qos_overload":   runQoSOverload,
	"session_prefix": runSessionPrefix,
	"sim_mixed":      runSimMixed,
}

// env is what every workload gets from the command line.
type env struct {
	seed     int64
	seconds  float64
	traced   bool
	qoserved string // path of the daemon binary (stream_http)
	outDir   string // where span files are written
	name     string
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measured wall seconds")
		traced   = flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
		qoserved = flag.String("qoserved", "", "qoserved binary (stream_http)")
		outDir   = flag.String("out", ".bench_build", "directory for span files")
		golden   = flag.String("record-golden", "", "write sim_mixed tallies for seeds 0..N-1 to this file and exit, e.g. 0-1023")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *golden != "" {
		if err := recordGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, traced: *traced == 1, qoserved: *qoserved, outDir: *outDir, name: *name}
	res, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, p)
	}
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, n)
	}
	line, err := json.Marshal(res.out())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload reports. problems are failed correctness
// checks and validity guards: any problem makes the run incorrect.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	problems  []string
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a problem when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) out() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics}
}
