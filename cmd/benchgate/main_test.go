package main

import (
	"strings"
	"testing"

	"qoserve/internal/benchfmt"
)

func load(t *testing.T, path string) benchfmt.Baseline {
	t.Helper()
	doc, err := benchfmt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestGatePassesWithinTolerance: a fresh run that is modestly slower but
// within the generous timing tolerance, with allocs unchanged, passes.
func TestGatePassesWithinTolerance(t *testing.T) {
	base := load(t, "testdata/baseline.json")
	cur := load(t, "testdata/ok.json")
	rows, failures := compare(base, cur, 0.6, 0.3)
	if len(failures) != 0 {
		t.Fatalf("expected clean gate, got failures: %v", failures)
	}
	if len(rows) == 0 {
		t.Fatal("expected comparison rows for shared benchmarks")
	}
}

// TestGateFailsOnRegression is the committed negative test: the regressed
// snapshot doubles allocs/op on the pooled frame path (0 -> 9), drops
// req/s by more than half, and triples ns/op. All three must trip.
func TestGateFailsOnRegression(t *testing.T) {
	base := load(t, "testdata/baseline.json")
	cur := load(t, "testdata/regressed.json")
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
	base := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &zero},
	}}
	cur := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: &one},
	}}
	if _, failures := compare(base, cur, 0.6, 0.3); len(failures) == 0 {
		t.Fatal("0 -> 1 allocs/op must fail the gate")
	}
}

// TestGateIgnoresUnsharedBenchmarks: entries present on only one side are
// skipped, so a short CI pass can measure a subset of the baseline.
func TestGateIgnoresUnsharedBenchmarks(t *testing.T) {
	base := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkOnlyInBaseline", NsPerOp: 100},
		{Name: "BenchmarkShared", NsPerOp: 100},
	}}
	cur := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
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
	base := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkY", NsPerOp: 100, Extra: map[string]float64{"prefix_transfer_tokens": 5000}},
	}}
	cur := benchfmt.Baseline{Benchmarks: []benchfmt.Result{
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
	base := load(t, "testdata/baseline.json")
	cur := load(t, "testdata/procs2.json")
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
