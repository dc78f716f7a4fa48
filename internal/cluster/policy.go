package cluster

import (
	"fmt"

	"qoserve/internal/core"
	"qoserve/internal/predictor"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// The per-replica scheduling policies every front end accepts by name: the
// root package's Policy constants and the -policy flag of qoserve-sim,
// qoserved and qoserve-loadgen.
const (
	PolicyQoServe     = "qoserve"
	PolicySarathiFCFS = "sarathi-fcfs"
	PolicySarathiEDF  = "sarathi-edf"
	PolicySarathiSJF  = "sarathi-sjf"
	PolicySarathiSRPF = "sarathi-srpf"
	PolicyVLLM        = "vllm"
	PolicyMedha       = "medha"
)

// Policies lists the policy names PolicyFactory accepts.
var Policies = []string{PolicyQoServe, PolicySarathiFCFS, PolicySarathiEDF, PolicySarathiSJF, PolicySarathiSRPF, PolicyVLLM, PolicyMedha}

// NeedsForest reports whether the named policy consults a latency predictor.
func NeedsForest(policy string) bool {
	return policy == PolicyQoServe || policy == PolicyMedha
}

// PolicyFactory resolves a policy name into a per-replica scheduler factory.
// The caller loads the forest, which the qoserve and medha policies share
// read-only across replicas (see NeedsForest). chunk is the fixed token
// budget of the Sarathi policies (0 = sched.DefaultChunk; negative is an
// error, since such a policy would never plan a prefill), and opts tune
// the qoserve policy.
func PolicyFactory(policy string, forest *predictor.Forest, chunk int, opts core.Options) (SchedulerFactory, error) {
	if chunk < 0 {
		return nil, fmt.Errorf("negative chunk %d", chunk)
	}
	switch policy {
	case PolicyQoServe:
		return func() sched.Scheduler { return core.New(forest, opts) }, nil
	case PolicySarathiFCFS:
		return func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, chunk) }, nil
	case PolicySarathiEDF:
		return func() sched.Scheduler { return sched.NewSarathi(sched.EDF, chunk) }, nil
	case PolicySarathiSJF:
		return func() sched.Scheduler { return sched.NewSarathi(sched.SJF, chunk) }, nil
	case PolicySarathiSRPF:
		return func() sched.Scheduler { return sched.NewSarathi(sched.SRPF, chunk) }, nil
	case PolicyVLLM:
		return func() sched.Scheduler { return sched.NewVLLM(0) }, nil
	case PolicyMedha:
		return func() sched.Scheduler { return sched.NewMedha(forest, 50*sim.Millisecond, 0) }, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
}
