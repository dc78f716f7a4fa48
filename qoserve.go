package qoserve

import (
	"fmt"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// ClassKind distinguishes interactive classes (TTFT and TBT SLOs) from
// batch classes (a single TTLT SLO).
type ClassKind int

// Class kinds.
const (
	Interactive ClassKind = iota
	Batch
)

// Class is a QoS bucket applications subscribe requests to. Interactive
// classes must set TTFT and TBT; batch classes must set TTLT.
type Class struct {
	Name string
	Kind ClassKind
	TTFT time.Duration // time-to-first-token target (interactive)
	TBT  time.Duration // time-between-tokens target (interactive)
	TTLT time.Duration // time-to-last-token target (batch)
}

// DefaultClasses returns the paper's Table 3 tiers: Q1 interactive
// (TTFT 6 s, TBT 50 ms), Q2 batch (TTLT 600 s), Q3 batch (TTLT 1800 s).
func DefaultClasses() []Class {
	return []Class{
		{Name: "Q1", Kind: Interactive, TTFT: 6 * time.Second, TBT: 50 * time.Millisecond},
		{Name: "Q2", Kind: Batch, TTLT: 600 * time.Second},
		{Name: "Q3", Kind: Batch, TTLT: 1800 * time.Second},
	}
}

// toInternal converts a public class to the internal representation.
func (c Class) toInternal() (qos.Class, error) {
	kind := qos.Interactive
	if c.Kind == Batch {
		kind = qos.NonInteractive
	}
	ic := qos.Class{
		Name: c.Name,
		Kind: kind,
		SLO: qos.SLO{
			TTFT: sim.FromDuration(c.TTFT),
			TBT:  sim.FromDuration(c.TBT),
			TTLT: sim.FromDuration(c.TTLT),
		},
	}
	if err := ic.Validate(); err != nil {
		return qos.Class{}, err
	}
	return ic, nil
}

// Priority is the application-provided importance hint used by eager
// relegation: Low (free-tier) requests are relegated before High (paid).
type Priority int

// Priority tiers.
const (
	High Priority = iota
	Low
)

// Request is one inference request submitted to the serving system.
type Request struct {
	// ID must be unique and non-zero; zero IDs are assigned sequentially.
	ID uint64
	// App identifies the submitting application; per-app history drives
	// decode-length estimation.
	App string
	// Class names one of the Options.Classes entries.
	Class string
	// Priority is the relegation hint (default High).
	Priority Priority
	// Arrival is the submission time relative to the start of the run.
	Arrival time.Duration
	// PromptTokens is the prompt length (> 0).
	PromptTokens int
	// DecodeTokens is the output length (> 0). It is ground truth used by
	// the execution engine; schedulers only see per-app estimates.
	DecodeTokens int
}

// Hardware selects a model/GPU configuration for the execution cost model.
type Hardware int

// The paper's Table 1 configurations.
const (
	// Llama3_8B_A100 is Llama3-8B on one A100-80GB (TP1).
	Llama3_8B_A100 Hardware = iota
	// Qwen_7B_2xA100 is Qwen-7B (full MHA) on two A100-80GB (TP2).
	Qwen_7B_2xA100
	// Llama3_70B_4xH100 is Llama3-70B on four H100-80GB (TP4).
	Llama3_70B_4xH100
)

// String implements fmt.Stringer.
func (h Hardware) String() string {
	return h.config().Name()
}

func (h Hardware) config() model.Config {
	switch h {
	case Qwen_7B_2xA100:
		return model.Qwen_7B_A100_TP2()
	case Llama3_70B_4xH100:
		return model.Llama3_70B_H100_TP4()
	default:
		return model.Llama3_8B_A100_TP1()
	}
}

// Policy selects the scheduling algorithm.
type Policy string

// Available policies.
const (
	// PolicyQoServe is the paper's scheduler: dynamic chunking, hybrid
	// prioritization, and eager relegation.
	PolicyQoServe Policy = cluster.PolicyQoServe
	// PolicySarathiFCFS is chunked prefill served first-come-first-served.
	PolicySarathiFCFS Policy = cluster.PolicySarathiFCFS
	// PolicySarathiEDF is chunked prefill served earliest-deadline-first.
	PolicySarathiEDF Policy = cluster.PolicySarathiEDF
	// PolicySarathiSJF is chunked prefill, shortest expected job first.
	PolicySarathiSJF Policy = cluster.PolicySarathiSJF
	// PolicySarathiSRPF is chunked prefill, shortest remaining prompt first.
	PolicySarathiSRPF Policy = cluster.PolicySarathiSRPF
	// PolicyMedha is Medha's TBT-pinned adaptive chunking under FCFS.
	PolicyMedha Policy = cluster.PolicyMedha
	// PolicyVLLM is vanilla vLLM: whole prompts in prefill-only
	// iterations, served first-come-first-served ahead of decodes.
	PolicyVLLM Policy = cluster.PolicyVLLM
)

// QoServeTuning exposes the QoServe scheduler's knobs; the zero value means
// the paper's defaults.
type QoServeTuning struct {
	// Alpha is the hybrid-prioritization factor in time per remaining
	// token (paper default 8 ms at high load, 1 ms at low load with
	// adaptive switching).
	Alpha time.Duration
	// DisableAdaptiveAlpha pins Alpha rather than switching on load.
	DisableAdaptiveAlpha bool
	// MaxChunk caps the dynamic chunk size (default 2500).
	MaxChunk int
	// DisableDynamicChunking, DisableEagerRelegation and
	// DisableHybridPriority turn individual techniques off (ablations).
	DisableDynamicChunking bool
	DisableEagerRelegation bool
	DisableHybridPriority  bool
}

func (t QoServeTuning) options() core.Options {
	opts := core.DefaultOptions()
	if t.Alpha > 0 {
		opts.Alpha = sim.FromDuration(t.Alpha)
	}
	if t.DisableAdaptiveAlpha {
		opts.AdaptiveAlpha = false
	}
	if t.MaxChunk > 0 {
		opts.MaxChunk = t.MaxChunk
	}
	opts.DynamicChunking = !t.DisableDynamicChunking
	opts.EagerRelegation = !t.DisableEagerRelegation
	opts.HybridPriority = !t.DisableHybridPriority
	return opts
}

// FaultPlan injects replica failures into a shared-cluster run. Leave the
// zero value for a fault-free run. Faults are deterministic: the same plan
// over the same workload produces the same schedule and the same metrics.
// Requests on a crashed replica lose their KV progress and are re-enqueued
// to a healthy replica with bounded retries and exponential backoff; they
// keep their original arrival time and deadline. Fault injection requires
// a shared cluster (it is incompatible with Silos).
type FaultPlan struct {
	// Schedule is an explicit injection list,
	// e.g. "crash@30s:1,restart@1m30s:1,slow@10s:2x3.5" —
	// kind@time:replica, with slow taking an xFACTOR suffix. When set,
	// the random-schedule fields are ignored.
	Schedule string
	// MTBF enables a seeded random schedule: each replica alternates
	// exponentially distributed healthy intervals (mean MTBF) and
	// downtimes (mean MTTR). MTTR zero leaves crashed replicas down.
	MTBF time.Duration
	MTTR time.Duration
	// Seed makes the random schedule reproducible (default 1).
	Seed int64
	// MaxRetries bounds re-enqueues per request before it is permanently
	// failed (default 3).
	MaxRetries int
	// RetryBackoff is the delay before the first re-enqueue, doubling per
	// retry (default 50ms).
	RetryBackoff time.Duration
	// ParkTimeout bounds how long a request may wait for any healthy
	// replica before being failed (default 5 minutes).
	ParkTimeout time.Duration
}

// enabled reports whether the plan injects anything.
func (p FaultPlan) enabled() bool { return p.Schedule != "" || p.MTBF > 0 }

// FaultReport aggregates failure and recovery over a run.
type FaultReport struct {
	// Crashes and Restarts count replica lifecycle transitions.
	Crashes  uint64
	Restarts uint64
	// Retries counts request re-enqueues after crashes.
	Retries uint64
	// LostTokens is the total tokens of progress discarded by crashes.
	LostTokens uint64
	// FailedRequests counts requests permanently failed with a reason
	// (retry budget exhausted, or no healthy replica within the park
	// timeout). Failed requests count as SLO violations.
	FailedRequests int
}

// Options configures a serving run.
type Options struct {
	// Hardware selects the execution cost model (default Llama3_8B_A100).
	Hardware Hardware
	// Policy selects the scheduler (default PolicyQoServe).
	Policy Policy
	// Replicas is the shared-cluster size (default 1). Ignored when
	// Silos is set.
	Replicas int
	// Silos, when non-nil, deploys one dedicated cluster per class name
	// (the paper's baseline deployment model) instead of a shared
	// cluster; the map gives replicas per class. The silo serving the
	// strictest interactive class uses chunk 256; others use 2048.
	Silos map[string]int
	// Classes declares the QoS classes requests may reference
	// (default DefaultClasses()).
	Classes []Class
	// Chunk overrides the fixed token budget of the Sarathi policies
	// (default 256). Medha (chunk cap 4096) and vLLM ignore it.
	Chunk int
	// QoServe tunes the QoServe policy.
	QoServe QoServeTuning
	// Horizon truncates the run; zero runs until every request has
	// either finished or provably missed its deadline.
	Horizon time.Duration
	// Faults injects replica failures (shared cluster only); the zero
	// value disables injection.
	Faults FaultPlan
}

func (o Options) classes() ([]Class, map[string]qos.Class, error) {
	cls := o.Classes
	if len(cls) == 0 {
		cls = DefaultClasses()
	}
	m := make(map[string]qos.Class, len(cls))
	for _, c := range cls {
		ic, err := c.toInternal()
		if err != nil {
			return nil, nil, err
		}
		if _, dup := m[c.Name]; dup {
			return nil, nil, fmt.Errorf("qoserve: duplicate class %q", c.Name)
		}
		m[c.Name] = ic
	}
	return cls, m, nil
}

// toInternal converts a public request, resolving its class.
func (r Request) toInternal(id uint64, classes map[string]qos.Class) (*request.Request, error) {
	cls, ok := classes[r.Class]
	if !ok {
		return nil, fmt.Errorf("qoserve: request %d references unknown class %q", id, r.Class)
	}
	prio := qos.High
	if r.Priority == Low {
		prio = qos.Low
	}
	app := r.App
	if app == "" {
		app = r.Class
	}
	ir := &request.Request{
		ID:           id,
		App:          app,
		Class:        cls,
		Priority:     prio,
		Arrival:      sim.FromDuration(r.Arrival),
		PromptTokens: r.PromptTokens,
		DecodeTokens: r.DecodeTokens,
	}
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	return ir, nil
}
