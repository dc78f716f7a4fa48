package experiments

import (
	"qoserve/internal/cluster"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/replica"
	"qoserve/internal/request"
	"qoserve/internal/sched"
)

// replicaRun simulates one replica with a concrete scheduler instance
// (rather than a factory) until the trace's judgment horizon.
func replicaRun(mc model.Config, s sched.Scheduler, trace []*request.Request) (*metrics.Summary, *replica.Replica, error) {
	return replica.Run(mc, s, trace, cluster.Horizon(trace))
}
