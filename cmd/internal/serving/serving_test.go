package serving

import (
	"testing"
	"time"

	"qoserve"
)

// TestPolicyResolversAgree feeds every -policy name through both
// resolvers, Build (qoserved, qoserve-loadgen) and qoserve.Serve
// (qoserve-sim): each accepts every listed name and rejects an unknown one.
func TestPolicyResolversAgree(t *testing.T) {
	reqs := []qoserve.Request{{Class: "Q1", PromptTokens: 100, DecodeTokens: 4}}
	for _, name := range append(Policies, "nope") {
		_, buildErr := Build(Options{Hardware: "llama3-8b", Policy: name, Balancer: "round-robin"})
		_, serveErr := qoserve.Serve(qoserve.Options{Policy: qoserve.Policy(name), Horizon: time.Minute}, reqs)
		want := name != "nope"
		if (buildErr == nil) != want || (serveErr == nil) != want {
			t.Errorf("policy %q: Build err = %v, Serve err = %v; want accepted = %v", name, buildErr, serveErr, want)
		}
	}
}
