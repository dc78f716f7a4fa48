package serving

import (
	"testing"

	"qoserve/internal/cluster"
)

// TestPolicyNames builds every -policy name through Build (qoserved,
// qoserve-loadgen) and checks the scheduler it makes. The root package's
// TestPolicyNames checks the same table through qoserve.Serve's resolver.
func TestPolicyNames(t *testing.T) {
	want := map[string]string{
		"qoserve":      "QoServe",
		"sarathi-fcfs": "Sarathi-FCFS",
		"sarathi-edf":  "Sarathi-EDF",
		"sarathi-sjf":  "Sarathi-SJF",
		"sarathi-srpf": "Sarathi-SRPF",
		"vllm":         "vLLM",
		"medha":        "Medha",
	}
	if len(cluster.Policies) != len(want) {
		t.Fatalf("cluster.Policies = %v, want the %d names below", cluster.Policies, len(want))
	}
	for _, name := range cluster.Policies {
		st, err := Build(Options{Hardware: "llama3-8b", Policy: name, Balancer: "round-robin"})
		if err != nil {
			t.Errorf("policy %q: %v", name, err)
			continue
		}
		if got := st.SchedulerFactory().Name(); got != want[name] {
			t.Errorf("policy %q builds %q, want %q", name, got, want[name])
		}
	}
	if _, err := Build(Options{Hardware: "llama3-8b", Policy: "nope", Balancer: "round-robin"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Build(Options{Hardware: "llama3-8b", Policy: "sarathi-fcfs", Chunk: -1, Balancer: "round-robin"}); err == nil {
		t.Error("negative chunk accepted")
	}
}
