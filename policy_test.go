package qoserve

import (
	"testing"

	"qoserve/internal/model"
)

// TestPolicyNames resolves every Policy constant, and the empty default,
// through factoryFor (Serve and the capacity searches) and checks the
// scheduler it makes. cmd/internal/serving's TestPolicyNames checks the
// same table through the daemon's resolver.
func TestPolicyNames(t *testing.T) {
	want := map[Policy]string{
		"":                "QoServe",
		PolicyQoServe:     "QoServe",
		PolicySarathiFCFS: "Sarathi-FCFS",
		PolicySarathiEDF:  "Sarathi-EDF",
		PolicySarathiSJF:  "Sarathi-SJF",
		PolicySarathiSRPF: "Sarathi-SRPF",
		PolicyVLLM:        "vLLM",
		PolicyMedha:       "Medha",
	}
	mc := model.Llama3_8B_A100_TP1()
	for policy, name := range want {
		factory, err := factoryFor(Options{Policy: policy}, mc)
		if err != nil {
			t.Errorf("policy %q: %v", policy, err)
			continue
		}
		if got := factory().Name(); got != name {
			t.Errorf("policy %q builds %q, want %q", policy, got, name)
		}
	}
	if _, err := factoryFor(Options{Policy: "nope"}, mc); err == nil {
		t.Error("unknown policy accepted")
	}
}
