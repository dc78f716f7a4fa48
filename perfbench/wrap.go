package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/replica"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// The traced run wraps the scheduler from SchedulerFactory, the predictor
// handed to core.New and the gateway balancer. Callers discover optional
// behaviour by type assertion, so a wrapper that dropped an optional
// interface would send the traced run down another code path: every
// wrapper implements exactly the optional interfaces of what it wraps, and
// sameInterfaces checks that when it is built.

// relegationCounter is the optional interface the gateway's /metrics
// probes for relegation totals.
type relegationCounter interface{ Relegations() int }

// optionalInterfaces names the optional interfaces v implements.
func optionalInterfaces(v any) []string {
	var out []string
	add := func(ok bool, name string) {
		if ok {
			out = append(out, name)
		}
	}
	_, ok := v.(sched.Traceable)
	add(ok, "sched.Traceable")
	_, ok = v.(sched.QueueReporter)
	add(ok, "sched.QueueReporter")
	_, ok = v.(relegationCounter)
	add(ok, "Relegations")
	_, ok = v.(predictor.FeaturePredictor)
	add(ok, "predictor.FeaturePredictor")
	_, ok = v.(cluster.PrefixRouter)
	add(ok, "cluster.PrefixRouter")
	_, ok = v.(cluster.SnapshotBalancer)
	add(ok, "cluster.SnapshotBalancer")
	_, ok = v.(cluster.PrefixSnapshotBalancer)
	add(ok, "cluster.PrefixSnapshotBalancer")
	return out
}

// sameInterfaces fails when wrapper does not implement exactly the
// optional interfaces of inner.
func sameInterfaces(inner, wrapper any) error {
	a, b := optionalInterfaces(inner), optionalInterfaces(wrapper)
	if !slices.Equal(a, b) {
		return fmt.Errorf("wrapper %T implements [%s], wrapped %T implements [%s]",
			wrapper, strings.Join(b, " "), inner, strings.Join(a, " "))
	}
	return nil
}

// planCtx is the span a scheduler call has open, the parent of the
// predictor calls it makes. Each wrapped scheduler is driven by one
// serving loop at a time, so it needs no lock.
type planCtx struct {
	id    uint64
	layer string
}

// tracedPredictor times calls into the predictor handed to core.New.
type tracedPredictor struct {
	inner predictor.SafePredictor
	rec   *recorder
	open  *planCtx
}

func (p *tracedPredictor) done(id uint64, start time.Time) {
	p.rec.end(id, p.open.id, 0, spanPredict, p.open.layer, start)
}

// Predict implements predictor.LatencyPredictor.
func (p *tracedPredictor) Predict(b model.BatchShape) sim.Time {
	id, st := p.rec.begin()
	t := p.inner.Predict(b)
	p.done(id, st)
	return t
}

// PredictSafe implements predictor.SafePredictor.
func (p *tracedPredictor) PredictSafe(b model.BatchShape) sim.Time {
	id, st := p.rec.begin()
	t := p.inner.PredictSafe(b)
	p.done(id, st)
	return t
}

// tracedFeatPredictor adds the feature fast path for predictors that
// have one.
type tracedFeatPredictor struct {
	tracedPredictor
	feats predictor.FeaturePredictor
}

// PredictFeats implements predictor.FeaturePredictor.
func (p *tracedFeatPredictor) PredictFeats(x [profile.FeatureCount]float64) sim.Time {
	id, st := p.rec.begin()
	t := p.feats.PredictFeats(x)
	p.done(id, st)
	return t
}

// PredictSafeFeats implements predictor.FeaturePredictor.
func (p *tracedFeatPredictor) PredictSafeFeats(x [profile.FeatureCount]float64) sim.Time {
	id, st := p.rec.begin()
	t := p.feats.PredictSafeFeats(x)
	p.done(id, st)
	return t
}

// wrapPredictor wraps pred; open is the span its calls are children of.
func wrapPredictor(pred predictor.SafePredictor, rec *recorder, open *planCtx) (predictor.SafePredictor, error) {
	base := tracedPredictor{inner: pred, rec: rec, open: open}
	var w predictor.SafePredictor = &base
	if fp, ok := pred.(predictor.FeaturePredictor); ok {
		w = &tracedFeatPredictor{tracedPredictor: base, feats: fp}
	}
	return w, sameInterfaces(pred, w)
}

// schedOptional is what the gateway and the benchmark probe a scheduler
// for; only schedulers implementing all of it (the QoServe policy) are
// wrapped.
type schedOptional interface {
	sched.Traceable
	sched.QueueReporter
	relegationCounter
}

// tracedSched times every call into a scheduler and records, per planned
// batch, its modeled execution time, its virtual duration from plan to
// completion, and its token counts.
type tracedSched struct {
	inner sched.Scheduler
	opt   schedOptional
	rec   *recorder
	mc    model.Config
	open  *planCtx

	shape   model.BatchShape
	planned bool
	planAt  sim.Time
	modeled sim.Time
}

// wrapSched wraps sc, whose predictor calls are reported as children of
// the span open points to.
func wrapSched(sc sched.Scheduler, rec *recorder, mc model.Config, open *planCtx) (sched.Scheduler, error) {
	opt, ok := sc.(schedOptional)
	if !ok {
		return nil, fmt.Errorf("scheduler %s lacks an optional interface the traced run forwards", sc.Name())
	}
	w := &tracedSched{inner: sc, opt: opt, rec: rec, mc: mc, open: open}
	rec.mu.Lock()
	rec.scheds = append(rec.scheds, w)
	rec.mu.Unlock()
	return w, sameInterfaces(sc, w)
}

// Name implements sched.Scheduler.
func (t *tracedSched) Name() string { return t.inner.Name() }

// Pending implements sched.Scheduler.
func (t *tracedSched) Pending() int { return t.inner.Pending() }

// SetTracer implements sched.Traceable.
func (t *tracedSched) SetTracer(tr trace.Tracer) { t.opt.SetTracer(tr) }

// QueueLen implements sched.QueueReporter.
func (t *tracedSched) QueueLen() (main, relegated, decode int) { return t.opt.QueueLen() }

// Relegations forwards the relegation count.
func (t *tracedSched) Relegations() int { return t.opt.Relegations() }

// Add implements sched.Scheduler.
func (t *tracedSched) Add(r *request.Request, now sim.Time) {
	id, st := t.rec.begin()
	*t.open = planCtx{id: id, layer: spanAdd}
	t.inner.Add(r, now)
	*t.open = planCtx{}
	t.rec.end(id, 0, r.ID, spanAdd, "", st)
}

// PlanBatch implements sched.Scheduler.
func (t *tracedSched) PlanBatch(now sim.Time) sched.Batch {
	main, _, _ := t.opt.QueueLen()
	t.rec.sample("sched.queue_main", float64(main))
	id, st := t.rec.begin()
	*t.open = planCtx{id: id, layer: spanPlan}
	b := t.inner.PlanBatch(now)
	*t.open = planCtx{}
	t.rec.end(id, 0, 0, spanPlan, "", st)
	if !b.Empty() {
		// Shape the batch as the serving loop does, before execution
		// advances the requests it prices.
		b.ShapeInto(&t.shape)
		t.planned, t.planAt, t.modeled = true, now, t.mc.BatchTime(t.shape)
		t.rec.count("sched.batches", 1)
		t.rec.count("sched.prefill_tokens", float64(b.PrefillTokens()))
		t.rec.count("sched.new_tokens", float64(b.NewTokens()))
	}
	return b
}

// OnBatchComplete implements sched.Scheduler.
func (t *tracedSched) OnBatchComplete(b sched.Batch, now sim.Time) {
	if t.planned {
		t.rec.count("iter.actual_s", (now - t.planAt).Seconds())
		t.rec.count("iter.modeled_s", t.modeled.Seconds())
		t.planned = false
	}
	id, st := t.rec.begin()
	t.inner.OnBatchComplete(b, now)
	t.rec.end(id, 0, 0, spanComplete, "", st)
}

// tracedBalancer times gateway balancer picks. Picks run inside Submit, so
// their time is charged as child time of the submit layer.
type tracedBalancer struct {
	inner cluster.GatewayBalancer
	rec   *recorder
}

func (b *tracedBalancer) done(id uint64, st time.Time) {
	b.rec.end(id, 0, 0, spanRoute, spanSubmit, st)
}

// PickIndex implements cluster.GatewayBalancer.
func (b *tracedBalancer) PickIndex(n int, load func(int) int) int {
	id, st := b.rec.begin()
	i := b.inner.PickIndex(n, load)
	b.done(id, st)
	return i
}

// tracedPrefixRouter wraps a prefix-affinity balancer.
type tracedPrefixRouter struct {
	tracedBalancer
	pr cluster.PrefixRouter
}

// PickPrefix implements cluster.PrefixRouter.
func (b *tracedPrefixRouter) PickPrefix(n int, load func(int) int, match func(int) int) int {
	id, st := b.rec.begin()
	i := b.pr.PickPrefix(n, load, match)
	b.done(id, st)
	return i
}

// tracedSnapBalancer wraps a predicted-latency balancer.
type tracedSnapBalancer struct {
	tracedBalancer
	sb cluster.SnapshotBalancer
	pb cluster.PrefixSnapshotBalancer
}

// PickPredicted implements cluster.SnapshotBalancer.
func (b *tracedSnapBalancer) PickPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, promptTokens, decodeTokens int) int {
	id, st := b.rec.begin()
	i := b.sb.PickPredicted(n, load, snap, promptTokens, decodeTokens)
	b.done(id, st)
	return i
}

// PickPrefixPredicted implements cluster.PrefixSnapshotBalancer.
func (b *tracedSnapBalancer) PickPrefixPredicted(n int, load func(int) int, snap func(int) replica.LoadSnapshot, match func(int) int, promptTokens, decodeTokens int) int {
	id, st := b.rec.begin()
	i := b.pb.PickPrefixPredicted(n, load, snap, match, promptTokens, decodeTokens)
	b.done(id, st)
	return i
}

// wrapBalancer wraps lb in the variant with lb's optional interfaces.
func wrapBalancer(lb cluster.GatewayBalancer, rec *recorder) (cluster.GatewayBalancer, error) {
	base := tracedBalancer{inner: lb, rec: rec}
	var w cluster.GatewayBalancer = &base
	sb, isSnap := lb.(cluster.SnapshotBalancer)
	pb, isPrefixSnap := lb.(cluster.PrefixSnapshotBalancer)
	pr, isPrefix := lb.(cluster.PrefixRouter)
	switch {
	case isSnap && isPrefixSnap && !isPrefix:
		w = &tracedSnapBalancer{tracedBalancer: base, sb: sb, pb: pb}
	case isPrefix && !isSnap && !isPrefixSnap:
		w = &tracedPrefixRouter{tracedBalancer: base, pr: pr}
	}
	return w, sameInterfaces(lb, w)
}
