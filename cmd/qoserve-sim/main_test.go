package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"qoserve"
)

// TestWriteTraceDigest pins -write-trace's bytes. The digests are those the
// standalone trace generator this flag replaced wrote for the same flags
// (its -burst-period defaulted to 15m, so the bursty case passes it).
func TestWriteTraceDigest(t *testing.T) {
	base := []string{"-write-trace", "-", "-qps", "3", "-duration", "10m", "-seed", "1", "-low-priority", "0.2"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{base, "7e7156e78ae24a615f8b33f3bc3de7369d09d09727132380623e6a079319fd9d"},
		{append(base, "-burst-qps", "5", "-burst-period", "15m"), "cbed0b50c4657835fdafaa1436428971ab289a1fa5d13465d003acdcc277329c"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%v: sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
}

// TestWrittenTraceReplays serves a written trace back through -trace.
func TestWrittenTraceReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-write-trace", path, "-qps", "3", "-duration", "1m"}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-policy", "sarathi-fcfs"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`requests=(\d+)`).FindStringSubmatch(out.String())
	if m == nil || m[1] != fmt.Sprint(lines) {
		t.Fatalf("wrote %d requests, served: %q", lines, out.String())
	}
}

// TestWriteTraceOverCap rejects a trace above qoserve.MaxTraceRequests
// before generating it or creating the file.
func TestWriteTraceOverCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run([]string{"-write-trace", path, "-qps", "1e5", "-duration", "10h"}, new(bytes.Buffer))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want the request-cap error", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("trace file created: %v", statErr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejected request allocated %d bytes", grew)
	}
}

// TestCapacityPrintsSearch checks that -capacity prints what the root
// package's searches return for the same specification.
func TestCapacityPrintsSearch(t *testing.T) {
	opts := qoserve.Options{Policy: qoserve.PolicySarathiEDF}
	spec := qoserve.WorkloadSpec{Dataset: qoserve.DatasetAzureCode, QPS: 8}
	copts := qoserve.CapacityOptions{ProbeDuration: time.Minute, Seed: 1}
	args := []string{"-policy", "sarathi-edf", "-duration", "1m", "-qps", "8"}

	rate, err := qoserve.FindMaxGoodput(opts, spec, copts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(append(args, "-capacity", "goodput"), &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("goodput=%.2f req/s/replica\n", rate); !strings.HasSuffix(out.String(), want) {
		t.Errorf("goodput output %q, want suffix %q", out.String(), want)
	}

	n, err := qoserve.FindMinReplicas(opts, spec, 8, copts)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(append(args, "-capacity", "replicas", "-replicas", "8"), &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("replicas=%d\n", n); !strings.HasSuffix(out.String(), want) {
		t.Errorf("replicas output %q, want suffix %q", out.String(), want)
	}
}

// TestModeConflicts rejects flags that only shape a served run.
func TestModeConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-capacity", "goodput", "-trace", "t.jsonl"},
		{"-capacity", "goodput", "-fail-mtbf", "1m"},
		{"-capacity", "replicas", "-fail", "crash@1s:0"},
		{"-capacity", "goodput", "-burst-qps", "5"},
		{"-capacity", "goodput", "-write-trace", "t.jsonl"},
		{"-capacity", "goodput", "-replicas", "4"},
		{"-capacity", "bogus"},
		{"-write-trace", "t.jsonl", "-trace", "u.jsonl"},
		{"-write-trace", "t.jsonl", "-out", "o.csv"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
