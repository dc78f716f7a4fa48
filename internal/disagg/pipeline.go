package disagg

import (
	"fmt"
	"sort"

	"qoserve/internal/cluster"
	"qoserve/internal/kvcache"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/replica"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// The paper evaluates only the prefill side of PD disaggregation and holds
// the decode tier fixed ("efficiently supporting different TBT SLOs in the
// decode nodes is left to future work"). This file builds that future-work
// substrate: an end-to-end pipeline where prompts are prefilled on a
// prefill cluster, the KV cache is shipped over an interconnect, and
// decoding proceeds on dedicated decode nodes batched under a cap chosen
// for the strictest TBT.

// PipelineConfig describes an end-to-end disaggregated deployment.
type PipelineConfig struct {
	Model model.Config

	PrefillReplicas int
	// PrefillFactory builds the scheduler for each prefill node (e.g.
	// QoServe with an 8K chunk cap, or Sarathi-EDF).
	PrefillFactory cluster.SchedulerFactory

	DecodeReplicas int
	// MaxDecodeBatch caps a decode node's batch so iteration latency
	// meets the strictest TBT. Zero derives it from the cost model and
	// StrictestTBT.
	MaxDecodeBatch int
	// StrictestTBT is used to derive MaxDecodeBatch when unset.
	StrictestTBT sim.Time

	// TransferBandwidth is the prefill->decode interconnect (a
	// replica.Link), bytes/s (default 64 GB/s, an NVLink-class link).
	TransferBandwidth float64
}

func (c PipelineConfig) validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.PrefillReplicas <= 0 || c.DecodeReplicas <= 0 {
		return fmt.Errorf("disagg: replica counts (%d,%d) must be positive",
			c.PrefillReplicas, c.DecodeReplicas)
	}
	if c.PrefillFactory == nil {
		return fmt.Errorf("disagg: nil prefill factory")
	}
	return nil
}

// DeriveDecodeBatch returns the largest decode-only batch whose iteration
// latency stays within tbt, assuming contexts of typicalCtx tokens.
func DeriveDecodeBatch(mc model.Config, tbt sim.Time, typicalCtx int) int {
	if tbt <= 0 {
		return 64
	}
	lo, hi := 1, 4096
	if mc.BatchTime(decodeShape(1, typicalCtx)) > tbt {
		return 1
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if mc.BatchTime(decodeShape(mid, typicalCtx)) <= tbt {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func decodeShape(n, ctx int) model.BatchShape {
	s := model.BatchShape{DecodeCtx: make([]int, n)}
	for i := range s.DecodeCtx {
		s.DecodeCtx[i] = ctx
	}
	return s
}

// decodeNode is a simulated decode-tier replica: a replica.Core over a
// capped FCFS DecodeScheduler, driven by engine events.
type decodeNode struct {
	core   *replica.Core
	engine *sim.Engine
	busy   bool
	batch  sched.Batch // the batch in flight
}

// admit takes in a request whose KV just arrived; its first token is
// stamped now.
func (d *decodeNode) admit(r *request.Request, now sim.Time) {
	d.core.AdmitHandoff(r, now, d)
	if !d.busy {
		d.iterate(now)
	}
}

// load is the node's queue pressure, used for least-loaded routing.
func (d *decodeNode) load() int { return d.core.Scheduler().Pending() }

// iterate launches the next batch, or idles the node.
func (d *decodeNode) iterate(now sim.Time) {
	d.batch = d.core.Plan(now)
	if d.batch.Empty() {
		d.busy = false
		return
	}
	d.busy = true
	exec, debt, _ := d.core.Price(d.batch, now)
	d.engine.At(now+exec+debt, d)
}

// Fire completes the batch in flight and starts the next.
func (d *decodeNode) Fire(_ *sim.Engine, end sim.Time) {
	d.core.Complete(d.batch, end, d)
	d.core.Release()
	d.iterate(end)
}

// Token implements replica.Delivery: the simulated tier streams nothing.
//
//qoserve:hotpath
func (d *decodeNode) Token(*request.Request, sim.Time, bool) {}

// PipelineResult carries the end-to-end summary plus tier statistics.
type PipelineResult struct {
	Summary *metrics.Summary
	// MaxDecodeBatch actually used.
	MaxDecodeBatch int
	// TransferTimeP50 is the median KV-transfer latency.
	TransferTimeP50 sim.Time
}

// RunPipeline simulates the full disaggregated pipeline over the trace:
// prefill on the prefill cluster (requests projected to prefill-only
// clones), KV transfer, then decode on the least-loaded decode node. The
// original requests carry the end-to-end timestamps: the first token is
// stamped when the transferred KV reaches a decode node, and subsequent
// tokens as the decode tier paces them.
func RunPipeline(cfg PipelineConfig, trace []*request.Request, horizon sim.Time) (*PipelineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.TransferBandwidth <= 0 {
		cfg.TransferBandwidth = 64e9
	}
	link := replica.NewLink(cfg.Model, cfg.TransferBandwidth)
	maxBatch := cfg.MaxDecodeBatch
	if maxBatch <= 0 {
		tbt := cfg.StrictestTBT
		if tbt <= 0 {
			tbt = 50 * sim.Millisecond
		}
		maxBatch = DeriveDecodeBatch(cfg.Model, tbt, typicalContext(trace))
	}

	engine := sim.NewEngine()
	prefillTier, err := cluster.New(engine, cfg.Model, cfg.PrefillReplicas, cfg.PrefillFactory)
	if err != nil {
		return nil, err
	}
	decodeNodes := make([]*decodeNode, cfg.DecodeReplicas)
	for i := range decodeNodes {
		kv, err := kvcache.NewManager(cfg.Model.KVCapacityTokens(), kvcache.DefaultBlockTokens)
		if err != nil {
			return nil, err
		}
		core := replica.NewCore(cfg.Model, NewDecodeScheduler(maxBatch), kv, replica.CoreOptions{})
		decodeNodes[i] = &decodeNode{core: core, engine: engine}
	}

	// Each original request is paired with a prefill-only clone served by
	// the prefill tier; the clone's completion (its FinishedAt is stamped
	// the moment prefill ends, since it has DecodeTokens=1) triggers the
	// KV transfer and the decode handoff.
	clones := PrefillOnly(trace)
	var transferTimes []sim.Time
	sim.Feed(engine, clones, (*request.Request).ArrivalTime, prefillTier.Submit)

	// A fine-grained periodic sweep translates clone completions into
	// transfer events; the 1 ms period bounds detection skew, negligible
	// at the latencies involved. The sweep tracks only in-flight clones: a
	// clone enters the pending set once its arrival passes (it cannot be
	// Done before it is submitted) and leaves on handoff, so each tick
	// costs O(in-flight) rather than O(trace). Admission relies on the
	// trace being arrival-ordered — admitted indices stay ascending, which
	// preserves the full-scan's index-order processing exactly; an
	// unsorted trace falls back to admitting everything up front.
	const sweepPeriod = sim.Millisecond
	pending := make([]int32, 0, len(trace))
	admit := 0 // first trace index not yet in the pending set
	arrivalSorted := true
	for i := 1; i < len(clones); i++ {
		if clones[i].Arrival < clones[i-1].Arrival {
			arrivalSorted = false
			break
		}
	}
	if !arrivalSorted {
		for i := range clones {
			pending = append(pending, int32(i))
		}
		admit = len(clones)
	}
	var sweep func(e *sim.Engine, now sim.Time)
	sweep = func(e *sim.Engine, now sim.Time) {
		for admit < len(clones) && clones[admit].Arrival <= now {
			pending = append(pending, int32(admit))
			admit++
		}
		kept := pending[:0]
		for _, idx := range pending {
			i := int(idx)
			if clones[i].Phase() != request.Done {
				kept = append(kept, idx)
				continue
			}
			orig, clone := trace[i], clones[i]
			// KV transfer: full prompt context across the interconnect.
			dt := sim.FromSeconds(link.Seconds(orig.PromptTokens))
			transferTimes = append(transferTimes, dt)
			arriveAt := clone.FinishedAt + dt
			if arriveAt < now {
				arriveAt = now
			}
			e.At(arriveAt, sim.EventFunc(func(_ *sim.Engine, t sim.Time) {
				// First token materializes at the decode tier.
				node := decodeNodes[0]
				for _, d := range decodeNodes[1:] {
					if d.load() < node.load() {
						node = d
					}
				}
				node.admit(orig, t)
			}))
		}
		pending = kept
		if len(pending) > 0 || admit < len(clones) {
			e.At(now+sweepPeriod, sim.EventFunc(sweep))
		}
	}
	engine.At(0, sim.EventFunc(sweep))

	end := engine.RunUntil(horizon)
	res := &PipelineResult{
		Summary:        metrics.NewSummary(trace, end, cfg.PrefillReplicas+cfg.DecodeReplicas),
		MaxDecodeBatch: maxBatch,
	}
	if len(transferTimes) > 0 {
		res.TransferTimeP50 = medianTime(transferTimes)
	}
	return res, nil
}

// typicalContext estimates the median final context of the trace.
func typicalContext(trace []*request.Request) int {
	if len(trace) == 0 {
		return 2048
	}
	vals := make([]int, len(trace))
	for i, r := range trace {
		vals[i] = r.TotalTokens()
	}
	return medianInt(vals)
}

func medianInt(v []int) int {
	cp := append([]int(nil), v...)
	sort.Ints(cp)
	return cp[len(cp)/2]
}

func medianTime(v []sim.Time) sim.Time {
	ints := make([]int, len(v))
	for i, t := range v {
		ints[i] = int(t)
	}
	return sim.Time(medianInt(ints))
}
