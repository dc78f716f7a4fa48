package replica

import (
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Run simulates a single replica serving the trace, injecting each request
// at its arrival time, until either all requests finish or the horizon is
// reached (sim.Forever runs to completion). It returns the run's metrics
// summary and the replica for further inspection.
func Run(cfg model.Config, sch sched.Scheduler, trace []*request.Request, horizon sim.Time) (*metrics.Summary, *Replica, error) {
	engine := sim.NewEngine()
	rep, err := New(engine, cfg, sch)
	if err != nil {
		return nil, nil, err
	}
	sim.Feed(engine, trace, (*request.Request).ArrivalTime, rep.Submit)
	end := engine.RunUntil(horizon)
	return metrics.NewSummary(trace, end, 1), rep, nil
}
