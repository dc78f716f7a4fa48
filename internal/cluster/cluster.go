// Package cluster simulates multi-replica deployments: the shared
// (co-scheduled) clusters QoServe argues for, the siloed per-tier clusters
// of current practice, round-robin load balancing across replicas, and the
// capacity searches behind the paper's goodput and GPU-count results
// (Table 4, Figures 7 and 15b).
//
// The cluster also owns failure semantics. Replicas can crash, restart,
// and degrade (internal/fault injects these deterministically); the
// balancer routes around down replicas, and requests orphaned by a crash
// are re-enqueued to a healthy replica with bounded retries and
// exponential backoff. A retried request loses its KV progress — the
// cache died with the replica — but keeps its original arrival time and
// deadline, so EDF/hybrid priority and relegation decisions treat it
// exactly like a request that had been queued all along. Requests that
// exhaust the retry budget (or find no healthy replica within the park
// timeout) are failed with a reason and reported as SLO violations: no
// request is ever silently dropped.
package cluster

import (
	"fmt"
	"sort"

	"qoserve/internal/fault"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/replica"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// SchedulerFactory builds a fresh scheduler for one replica.
type SchedulerFactory func() sched.Scheduler

// Cluster is a set of identical replicas behind a load balancer
// (round-robin by default, as in the paper).
type Cluster struct {
	engine   *sim.Engine
	cfg      model.Config
	factory  SchedulerFactory
	replicas []*replica.Replica
	balancer GatewayBalancer
	tracer   trace.Tracer

	// up is Submit's scratch list of the healthy replicas, and upLoad the
	// balancer's load probe over it: each one's unfinished requests.
	up     []*replica.Replica
	upLoad func(int) int

	// Failure state.
	health   []Health
	recovery Recovery
	parked   []*request.Request // waiting for any healthy replica
	failed   []FailedRequest

	retries    uint64
	lostTokens uint64
}

// New builds a cluster of n replicas sharing the given engine.
func New(engine *sim.Engine, cfg model.Config, n int, factory SchedulerFactory) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: replica count %d", n)
	}
	c := &Cluster{
		engine:   engine,
		cfg:      cfg,
		factory:  factory,
		balancer: &RoundRobin{},
		tracer:   trace.Nop(),
		recovery: DefaultRecovery(),
		health:   make([]Health, n),
	}
	c.upLoad = func(i int) int { return c.up[i].Scheduler().Pending() }
	for i := 0; i < n; i++ {
		rep, err := replica.New(engine, cfg, factory())
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, rep)
		c.health[i] = Health{Up: true, SlowFactor: 1}
	}
	return c, nil
}

// SetBalancer replaces the routing policy (before submitting requests).
// Picks run on the simulation goroutine, so single-picker balancers such
// as RoundRobin are fine.
func (c *Cluster) SetBalancer(b GatewayBalancer) { c.balancer = b }

// SetRecovery replaces the crash-recovery policy (zero fields take
// defaults). Call before submitting requests.
func (c *Cluster) SetRecovery(r Recovery) { c.recovery = r.withDefaults() }

// SetTracer attaches a tracer that receives replica up/down, retry, and
// failure events (in addition to whatever the per-replica schedulers
// record into their own tracers).
func (c *Cluster) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop()
	}
	c.tracer = t
}

// Submit routes a request via the balancer, considering only healthy
// replicas. With the whole cluster down the request parks until a replica
// restarts (or the park timeout fails it). Re-submitting a parked or
// recovered request re-enters it into the tracked population, which is
// why this counts as a recorded outcome for nosilentdrop.
//
//qoserve:outcome requeue
func (c *Cluster) Submit(r *request.Request) {
	c.up = c.up[:0]
	for i, rep := range c.replicas {
		if c.health[i].Up {
			c.up = append(c.up, rep)
		}
	}
	if len(c.up) == 0 {
		c.park(r)
		return
	}
	c.up[c.balancer.PickIndex(len(c.up), c.upLoad)].Submit(r)
}

// park queues a request while no replica is healthy and arms its timeout.
func (c *Cluster) park(r *request.Request) {
	now := c.engine.Now()
	c.parked = append(c.parked, r)
	deadline := now + c.recovery.ParkTimeout
	c.engine.At(deadline, sim.EventFunc(func(_ *sim.Engine, t sim.Time) {
		for i, p := range c.parked {
			if p == r {
				c.parked = append(c.parked[:i], c.parked[i+1:]...)
				c.failRequest(r, t, fmt.Sprintf("no healthy replica within %v", c.recovery.ParkTimeout))
				return
			}
		}
	}))
}

// flushParked re-submits every parked request, in arrival order, once a
// replica is healthy again.
func (c *Cluster) flushParked() {
	if len(c.parked) == 0 {
		return
	}
	waiting := c.parked
	c.parked = nil
	for _, r := range waiting {
		c.Submit(r)
	}
}

// failRequest permanently gives up on a request, recording the reason.
//
//qoserve:outcome fail
func (c *Cluster) failRequest(r *request.Request, now sim.Time, reason string) {
	r.FailedReason = reason
	c.failed = append(c.failed, FailedRequest{Req: r, At: now, Reason: reason})
	if c.tracer.Enabled() {
		c.tracer.RecordEvent(trace.Event{
			At: now, Kind: trace.RequestFailed, Req: r.ID, Class: r.Class.Name, Reason: reason,
		})
	}
}

// recoverRequest re-enqueues a request orphaned by a crash: progress is
// discarded (the KV cache died with the replica), the arrival time and
// deadline survive, and the resubmission is delayed by exponential
// backoff. Exhausting the retry budget fails the request with a reason.
func (c *Cluster) recoverRequest(r *request.Request, now sim.Time) {
	if r.Retries >= c.recovery.MaxRetries {
		c.failRequest(r, now, fmt.Sprintf("retry budget exhausted after %d attempts", r.Retries+1))
		return
	}
	c.lostTokens += uint64(r.ResetForRetry()) // increments r.Retries
	c.retries++
	backoff := c.recovery.Backoff << (r.Retries - 1)
	if c.tracer.Enabled() {
		c.tracer.RecordEvent(trace.Event{
			At: now, Kind: trace.RequestRetry, Req: r.ID, Class: r.Class.Name,
			Reason: fmt.Sprintf("attempt %d, backoff %v", r.Retries+1, backoff),
		})
	}
	c.engine.At(now+backoff, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) {
		c.Submit(r)
	}))
}

// Size is the number of replicas. (Also part of fault.Target.)
func (c *Cluster) Size() int { return len(c.replicas) }

// Crash kills replica i at the current virtual time: its in-flight work is
// orphaned and every orphan re-enqueued (or failed) per the recovery
// policy. Crashing an already-down replica is a no-op. Implements
// fault.Target.
func (c *Cluster) Crash(i int) {
	if i < 0 || i >= len(c.replicas) || !c.health[i].Up {
		return
	}
	now := c.engine.Now()
	orphans := c.replicas[i].Fail()
	c.health[i].Up = false
	c.health[i].Since = now
	c.health[i].Crashes++
	if c.tracer.Enabled() {
		c.tracer.RecordEvent(trace.Event{
			At: now, Kind: trace.ReplicaDown, Req: uint64(i),
			Reason: fmt.Sprintf("crash orphaned %d requests", len(orphans)),
		})
	}
	for _, r := range orphans {
		c.recoverRequest(r, now)
	}
}

// Restart returns crashed replica i to service with a fresh scheduler and
// an empty KV cache, then re-submits any parked requests. Restarting a
// live replica is a no-op. Implements fault.Target.
func (c *Cluster) Restart(i int) {
	if i < 0 || i >= len(c.replicas) || c.health[i].Up {
		return
	}
	now := c.engine.Now()
	if err := c.replicas[i].Restart(c.factory()); err != nil {
		panic(fmt.Sprintf("cluster: restart replica %d: %v", i, err))
	}
	c.health[i].Downtime += now - c.health[i].Since
	c.health[i].Up = true
	c.health[i].Since = now
	c.health[i].Restarts++
	if c.tracer.Enabled() {
		c.tracer.RecordEvent(trace.Event{At: now, Kind: trace.ReplicaUp, Req: uint64(i)})
	}
	c.flushParked()
}

// SetSlow sets replica i's execution-time multiplier (<= 1 restores
// nominal speed). Implements fault.Target.
func (c *Cluster) SetSlow(i int, factor float64) {
	if i < 0 || i >= len(c.replicas) {
		return
	}
	c.replicas[i].SetSlowFactor(factor)
	c.health[i].SlowFactor = c.replicas[i].SlowFactor()
	if c.tracer.Enabled() {
		c.tracer.RecordEvent(trace.Event{
			At: c.engine.Now(), Kind: trace.ReplicaSlow, Req: uint64(i),
			Reason: fmt.Sprintf("factor %g", c.replicas[i].SlowFactor()),
		})
	}
}

// Replicas returns the cluster's replicas.
func (c *Cluster) Replicas() []*replica.Replica { return c.replicas }

// GPUs is the total GPU count (replicas x TP degree).
func (c *Cluster) GPUs(cfg model.Config) int { return len(c.replicas) * cfg.GPUs() }

// RunShared simulates a shared cluster of n replicas serving the whole
// trace, returning the metrics summary.
func RunShared(cfg model.Config, n int, factory SchedulerFactory, trace []*request.Request, horizon sim.Time) (*metrics.Summary, error) {
	sum, _, err := RunFaulty(cfg, n, factory, trace, horizon, nil, Recovery{})
	return sum, err
}

// RunFaulty simulates a shared cluster of n replicas serving the trace
// while the fault schedule plays out, returning the metrics summary and
// the cluster's failure/recovery counters. A nil or empty schedule reduces
// to RunShared. Determinism: with a fixed trace and schedule the run is a
// pure function of its inputs — two runs produce identical summaries.
func RunFaulty(cfg model.Config, n int, factory SchedulerFactory, trace []*request.Request, horizon sim.Time, faults fault.Schedule, rec Recovery) (*metrics.Summary, FaultStats, error) {
	engine := sim.NewEngine()
	c, err := New(engine, cfg, n, factory)
	if err != nil {
		return nil, FaultStats{}, err
	}
	c.SetRecovery(rec)
	if len(faults) > 0 {
		if err := fault.Arm(engine, c, faults); err != nil {
			return nil, FaultStats{}, err
		}
	}
	scheduleArrivals(engine, c, trace)
	end := engine.RunUntil(horizon)
	return metrics.NewSummary(trace, end, n), c.FaultStats(), nil
}

// SiloPlan maps QoS class names to dedicated replica counts and the
// scheduler used inside each silo.
type SiloPlan struct {
	// Replicas per class name, e.g. {"Q1": 7, "Q2": 3, "Q3": 3}.
	Replicas map[string]int
	// Factory builds the scheduler for a silo serving the given class.
	Factory func(class string) sched.Scheduler
}

// TotalReplicas sums the plan's replica counts.
func (p SiloPlan) TotalReplicas() int {
	n := 0
	for _, v := range p.Replicas {
		n += v
	}
	return n
}

// RunSiloed simulates the siloed deployment: one independent cluster per
// QoS class, requests routed by class, round-robin within each silo.
func RunSiloed(cfg model.Config, plan SiloPlan, trace []*request.Request, horizon sim.Time) (*metrics.Summary, error) {
	engine := sim.NewEngine()
	// Build silos in sorted class order: map iteration order would vary the
	// construction sequence run to run, and every structure hanging off the
	// shared engine must be reproducible for bit-identical replays.
	classes := make([]string, 0, len(plan.Replicas))
	for class := range plan.Replicas {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	silos := make(map[string]*Cluster, len(plan.Replicas))
	for _, class := range classes {
		class := class
		c, err := New(engine, cfg, plan.Replicas[class], func() sched.Scheduler { return plan.Factory(class) })
		if err != nil {
			return nil, err
		}
		silos[class] = c
	}
	for _, r := range trace {
		if _, ok := silos[r.Class.Name]; !ok {
			return nil, fmt.Errorf("cluster: no silo for class %q", r.Class.Name)
		}
	}
	sim.Feed(engine, trace, (*request.Request).ArrivalTime, func(r *request.Request) {
		silos[r.Class.Name].Submit(r)
	})
	end := engine.RunUntil(horizon)
	return metrics.NewSummary(trace, end, plan.TotalReplicas()), nil
}

// scheduleArrivals feeds the trace to c at its arrival times.
func scheduleArrivals(engine *sim.Engine, c *Cluster, trace []*request.Request) {
	sim.Feed(engine, trace, (*request.Request).ArrivalTime, c.Submit)
}
