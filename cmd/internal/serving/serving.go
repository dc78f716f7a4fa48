// Package serving resolves the flags the serving commands share — the
// hardware preset, the scheduling policy and the replica balancer — into
// the pieces server.Config takes. qoserved and qoserve-loadgen build their
// gateway through Build, which loads the preset's shipped latency
// predictor (internal/predictor/forests) rather than training one;
// profilegen uses Hardware. The -policy names are cluster.Policies, the
// table qoserve-sim's qoserve.Serve resolves through as well.
package serving

import (
	"fmt"
	"log"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/predictor/forests"
	"qoserve/internal/sched"
)

// Hardware returns the cost model of a -hardware name. Every name is a
// preset that ships a trained forest.
func Hardware(name string) (model.Config, error) {
	for _, p := range forests.Presets() {
		if p.Hardware == name {
			return p.Model, nil
		}
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
// balancer share one forest, the preset's shipped one.
func Build(o Options) (Stack, error) {
	mc, err := Hardware(o.Hardware)
	if err != nil {
		return Stack{}, err
	}
	var forest *predictor.Forest
	if cluster.NeedsForest(o.Policy) || o.Balancer == "predicted" {
		if forest, err = forests.Load(mc); err != nil {
			return Stack{}, err
		}
		log.Printf("loaded the shipped latency predictor for %s (%d trees)", mc.Name(), forest.Trees())
	}

	st := Stack{Model: mc}
	if st.SchedulerFactory, err = cluster.PolicyFactory(o.Policy, forest, o.Chunk, core.DefaultOptions()); err != nil {
		return Stack{}, err
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
