package main

import (
	"os"
	"strings"
	"testing"
)

func mustLoad(t *testing.T, path string) Run {
	t.Helper()
	run, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestGatePassesWithinTolerance: a fresh run that is modestly slower but
// within the generous timing tolerance, with allocs unchanged, passes.
func TestGatePassesWithinTolerance(t *testing.T) {
	base := mustLoad(t, "testdata/baseline.txt")
	cur := mustLoad(t, "testdata/ok.txt")
	rows, failures := compare(base, cur, 0.6, 0.3)
	if len(failures) != 0 {
		t.Fatalf("expected clean gate, got failures: %v", failures)
	}
	// One row per shared benchmark, however many metrics each carries.
	if len(rows) != 2 {
		t.Fatalf("want 2 rows (one per shared benchmark), got %d:\n%s", len(rows), strings.Join(rows, "\n"))
	}
}

// TestGateFailsOnRegression is the committed negative test: the regressed
// snapshot doubles allocs/op on the pooled frame path (0 -> 9), drops
// req/s by more than half, and triples ns/op. All three must trip.
func TestGateFailsOnRegression(t *testing.T) {
	base := mustLoad(t, "testdata/baseline.txt")
	cur := mustLoad(t, "testdata/regressed.txt")
	_, failures := compare(base, cur, 0.6, 0.3)
	if len(failures) == 0 {
		t.Fatal("regressed snapshot passed the gate")
	}
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"allocs/op", "req/s", "ns/op"} {
		if !strings.Contains(joined, want) {
			t.Errorf("expected a %s failure, got:\n%s", want, joined)
		}
	}
}

// TestGateZeroAllocBaselineIsStrict: a zero allocs/op baseline is a
// structural property — any growth fails regardless of tolerance.
func TestGateZeroAllocBaselineIsStrict(t *testing.T) {
	one := int64(1)
	zero := int64(0)
	base := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &zero},
	}}
	cur := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &one},
	}}
	if _, failures := compare(base, cur, 0.6, 0.3); len(failures) == 0 {
		t.Fatal("0 -> 1 allocs/op must fail the gate")
	}
}

// TestGateIgnoresUnsharedBenchmarks: entries present on only one side are
// skipped, so a short CI pass can measure a subset of the baseline.
func TestGateIgnoresUnsharedBenchmarks(t *testing.T) {
	base := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkOnlyInBaseline", NsPerOp: 100},
		{Name: "BenchmarkShared", NsPerOp: 100},
	}}
	cur := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkShared", NsPerOp: 110},
		{Name: "BenchmarkOnlyInCurrent", NsPerOp: 1e9},
	}}
	rows, failures := compare(base, cur, 0.6, 0.3)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	for _, row := range rows {
		if strings.Contains(row, "OnlyIn") {
			t.Fatalf("unshared benchmark compared: %s", row)
		}
	}
}

// TestGateCountersDoNotGate: raw-counter extras (no _ms suffix, not a
// throughput unit) are informational only.
func TestGateCountersDoNotGate(t *testing.T) {
	base := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkY", NsPerOp: 100, Extra: map[string]float64{"prefix_transfer_tokens": 5000}},
	}}
	cur := Run{GoMaxProcs: 1, Benchmarks: []Result{
		{Name: "BenchmarkY", NsPerOp: 100, Extra: map[string]float64{"prefix_transfer_tokens": 1}},
	}}
	if _, failures := compare(base, cur, 0.6, 0.3); len(failures) != 0 {
		t.Fatalf("counter extra gated: %v", failures)
	}
}

// TestGateRejectsGoMaxProcsMismatch: a run at a different GOMAXPROCS than
// the baseline fails the gate even when every metric is within tolerance —
// the gateway benchmarks scale their submitters with the CPU count, so the
// numbers are not comparable.
func TestGateRejectsGoMaxProcsMismatch(t *testing.T) {
	base := mustLoad(t, "testdata/baseline.txt")
	cur := mustLoad(t, "testdata/procs2.txt")
	rows, failures := compare(base, cur, 0.6, 0.3)
	if len(failures) != 1 || !strings.Contains(failures[0], "gomaxprocs") {
		t.Fatalf("want one gomaxprocs failure, got %v", failures)
	}
	if len(rows) != 0 {
		t.Fatalf("compared metrics across CPU counts: %v", rows)
	}
	cur.GoMaxProcs = base.GoMaxProcs
	if _, failures := compare(base, cur, 0.6, 0.3); len(failures) != 0 {
		t.Fatalf("same run at matching GOMAXPROCS failed: %v", failures)
	}
}

// TestParseRealLog reads a log `go test -bench -benchmem -cpu 1,2` wrote:
// custom ReportMetric units land in Extra, allocs/op is kept and B/op
// dropped, the -N suffix becomes Procs, and the goos/pkg/cpu header and
// PASS/ok trailer lines are skipped.
func TestParseRealLog(t *testing.T) {
	f, err := os.Open("testdata/server_bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		name  string
		procs int
	}
	got := map[key]Result{}
	for _, r := range results {
		got[key{r.Name, r.Procs}] = r
	}
	if len(results) != 4 || len(got) != 4 {
		t.Fatalf("want 4 distinct benchmark lines, got %+v", results)
	}
	fanout := got[key{"BenchmarkTokenFanout", 2}]
	if fanout.NsPerOp != 412.1 || fanout.AllocsPerOp == nil || *fanout.AllocsPerOp != 0 || fanout.Extra != nil {
		t.Errorf("BenchmarkTokenFanout-2 parsed as %+v", fanout)
	}
	frame := got[key{"BenchmarkGatewayFrameReplicas8", 1}]
	if frame.NsPerOp != 159607 || frame.AllocsPerOp == nil || *frame.AllocsPerOp != 1 {
		t.Errorf("BenchmarkGatewayFrameReplicas8 parsed as %+v", frame)
	}
	want := map[string]float64{"req/s": 6265, "ttft_p50_ms": 690.8, "ttft_p90_ms": 1102}
	if len(frame.Extra) != len(want) {
		t.Errorf("extras = %v, want %v (B/op must not be one)", frame.Extra, want)
	}
	for unit, v := range want {
		if frame.Extra[unit] != v {
			t.Errorf("%s = %v, want %v", unit, frame.Extra[unit], v)
		}
	}
	if _, err := load("testdata/server_bench.txt"); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("a log mixing -cpu 1 and 2 loaded: %v", err)
	}
}

// TestCommittedBaseline: the baseline `make bench-gate` diffs against
// holds BenchmarkGatewayFrameReplicas8 at GOMAXPROCS 1 with all five gated
// metrics, and a run equal to it passes.
func TestCommittedBaseline(t *testing.T) {
	base := mustLoad(t, "../../BENCH_GATE.txt")
	if base.GoMaxProcs != 1 || len(base.Benchmarks) != 1 {
		t.Fatalf("baseline = %+v", base)
	}
	b := base.Benchmarks[0]
	if b.Name != "BenchmarkGatewayFrameReplicas8" || b.NsPerOp == 0 || b.AllocsPerOp == nil {
		t.Fatalf("baseline benchmark = %+v", b)
	}
	for _, unit := range []string{"req/s", "ttft_p50_ms", "ttft_p90_ms"} {
		if _, ok := b.Extra[unit]; !ok || !gatedExtra(unit) {
			t.Errorf("baseline lacks gated metric %s: %v", unit, b.Extra)
		}
	}
	rows, failures := compare(base, base, 0.6, 0.3)
	if len(rows) != 1 || len(failures) != 0 {
		t.Fatalf("baseline against itself: rows %v, failures %v", rows, failures)
	}
	if n := strings.Count(rows[0], "\n"); n != 5 {
		t.Errorf("want 5 gated metrics in the row, got %d:\n%s", n, rows[0])
	}
}
