// Package serving resolves the flags the serving commands share — the
// hardware preset, the scheduling policy and the replica balancer — into
// the pieces server.Config takes. qoserved and qoserve-loadgen build their
// gateway through Build; profilegen uses Hardware.
package serving

import (
	"fmt"
	"log"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Hardware returns the cost model of a -hardware name.
func Hardware(name string) (model.Config, error) {
	switch name {
	case "llama3-8b":
		return model.Llama3_8B_A100_TP1(), nil
	case "qwen-7b":
		return model.Qwen_7B_A100_TP2(), nil
	case "llama3-70b":
		return model.Llama3_70B_H100_TP4(), nil
	}
	return model.Config{}, fmt.Errorf("unknown hardware %q", name)
}

// Options are the shared flag values.
type Options struct {
	Hardware string
	// Policy names the per-replica scheduler; Chunk is the fixed chunk of
	// the Sarathi policies.
	Policy string
	Chunk  int
	// Balancer names the replica routing policy. PrefixMin is the smallest
	// cached-prefix match the prefix-aware balancers chase, and a positive
	// KVTransferGbps lets the predicted balancer price cross-replica KV
	// imports over an interconnect of that many GB/s.
	Balancer       string
	PrefixMin      int
	KVTransferGbps float64
}

// Stack is what Build resolves.
type Stack struct {
	Model model.Config
	// SchedulerFactory builds one scheduler per replica (the forest, when
	// the policy needs one, is read-only and shared).
	SchedulerFactory func() sched.Scheduler
	Balancer         cluster.GatewayBalancer
}

// Build resolves o. The qoserve and medha policies and the predicted
// balancer share one forest, profiled and trained (seed 1) once — the
// expensive part of start-up.
func Build(o Options) (Stack, error) {
	mc, err := Hardware(o.Hardware)
	if err != nil {
		return Stack{}, err
	}
	var forest *predictor.Forest
	if o.Policy == "qoserve" || o.Policy == "medha" || o.Balancer == "predicted" {
		log.Printf("profiling %s and training the latency predictor ...", mc.Name())
		samples, err := profile.Collect(mc, profile.Config{Seed: 1})
		if err != nil {
			return Stack{}, err
		}
		if forest, err = predictor.Train(samples, predictor.ForestConfig{Seed: 1}); err != nil {
			return Stack{}, err
		}
	}

	st := Stack{Model: mc}
	switch o.Policy {
	case "qoserve":
		st.SchedulerFactory = func() sched.Scheduler { return core.New(forest, core.DefaultOptions()) }
	case "sarathi-fcfs":
		st.SchedulerFactory = func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, o.Chunk) }
	case "sarathi-edf":
		st.SchedulerFactory = func() sched.Scheduler { return sched.NewSarathi(sched.EDF, o.Chunk) }
	case "sarathi-srpf":
		st.SchedulerFactory = func() sched.Scheduler { return sched.NewSarathi(sched.SRPF, o.Chunk) }
	case "vllm":
		st.SchedulerFactory = func() sched.Scheduler { return sched.NewVLLM(0) }
	case "medha":
		st.SchedulerFactory = func() sched.Scheduler { return sched.NewMedha(forest, 50*sim.Millisecond, 0) }
	default:
		return Stack{}, fmt.Errorf("unknown policy %q", o.Policy)
	}

	switch o.Balancer {
	case "round-robin":
		st.Balancer = &cluster.AtomicRoundRobin{}
	case "least-loaded":
		st.Balancer = cluster.LeastLoaded{}
	case "prefix":
		st.Balancer = &cluster.PrefixAffinity{MinMatchTokens: o.PrefixMin}
	case "predicted":
		pl := &cluster.PredictedLatency{Predictor: forest}
		if o.KVTransferGbps > 0 {
			pl.Transfer = &cluster.TransferModel{
				BytesPerToken: mc.Model.KVBytesPerToken(),
				BandwidthBps:  o.KVTransferGbps * 1e9,
				MinTokens:     o.PrefixMin,
			}
		}
		st.Balancer = pl
	default:
		return Stack{}, fmt.Errorf("unknown balancer %q", o.Balancer)
	}
	return st, nil
}
