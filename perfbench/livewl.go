package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

// Validity limits. A run outside them measured the harness, not the
// program, and is reported as incorrect rather than slow.
const (
	// lateLimitMS bounds the p99 of how late the load generator sent
	// requests against their schedule (wall ms).
	lateLimitMS = 20.0
	// overrunLimit bounds the share of iteration time not covered by
	// modeled execution (sleep overshoot plus loop overhead), so that
	// modeled time dominates what the clients see.
	overrunLimit = 0.25
)

// liveSpec is one in-process gateway configuration.
type liveSpec struct {
	replicas  int
	timescale float64
	// balancer builds the routing policy around the trained forest.
	balancer func(*predictor.Forest) cluster.GatewayBalancer
	kv       kvcache.Config
	// kvTransferGBps enables cross-replica KV import (GB/s); 0 recomputes.
	kvTransferGBps float64
}

// gateway is a running in-process server plus the scheduler handles the
// benchmark reads once it is closed.
type gateway struct {
	srv    *server.Server
	scheds []relegationCounter // guarded by mu until the server closes
	mu     sync.Mutex
}

// relegations sums the schedulers' relegation counts. Call it only after
// the server is closed: the counters belong to the serving loops.
func (g *gateway) relegations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, s := range g.scheds {
		n += s.Relegations()
	}
	return n
}

// startGateway trains the predictor and builds the server the way
// qoserved does (QoServe policy per replica over one shared forest,
// batched frames, trace ring, Table 3 classes). With rec set, schedulers,
// their predictors and the balancer are wrapped in timing shims.
func startGateway(mc model.Config, spec liveSpec, rec *recorder) (*gateway, error) {
	forest, err := trainForest(mc)
	if err != nil {
		return nil, err
	}
	g := &gateway{}
	build := func() (sched.Scheduler, error) {
		if rec == nil {
			return core.New(forest, core.DefaultOptions()), nil
		}
		open := &planCtx{}
		wp, err := wrapPredictor(forest, rec, open)
		if err != nil {
			return nil, err
		}
		return wrapSched(core.New(wp, core.DefaultOptions()), rec, mc, open)
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	factory := func() sched.Scheduler {
		s, _ := build() // the wrapping was checked above and is deterministic
		g.mu.Lock()
		g.scheds = append(g.scheds, s.(relegationCounter))
		g.mu.Unlock()
		return s
	}
	lb := spec.balancer(forest)
	if rec != nil {
		if lb, err = wrapBalancer(lb, rec); err != nil {
			return nil, err
		}
	}
	g.srv, err = server.New(server.Config{
		Model:               mc,
		SchedulerFactory:    factory,
		Replicas:            spec.replicas,
		Balancer:            lb,
		KV:                  spec.kv,
		GlobalPrefixIndex:   true,
		KVTransferBandwidth: spec.kvTransferGBps * 1e9,
		StreamBuffer:        256,
		EventFrame:          16,
		Classes:             qos.Table3(),
		Timescale:           spec.timescale,
		TraceDepth:          1024,
		MetricsWindow:       time.Minute,
	})
	return g, err
}

// setupGateway builds the gateway setupRounds times, timing each from
// predictor training to a server ready to accept, and keeps the last.
func setupGateway(mc model.Config, spec liveSpec, rec *recorder) (*gateway, []float64, error) {
	var setups []float64
	var g *gateway
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		gi, err := startGateway(mc, spec, rec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if g != nil {
			g.srv.Close()
		}
		g = gi
	}
	return g, setups, nil
}

// arrival is one scheduled submission. Session turns after the first are
// not scheduled up front: each is due a think time after its predecessor
// completes.
type arrival struct {
	at    time.Duration // wall offset the request is due
	phase int
	class qos.Class
	sub   server.Submission
	next  *arrival      // the session's next turn, if any
	think time.Duration // wall think time before next is due
}

// openLoop submits arrivals on schedule, one receiver goroutine per
// stream. Receivers of streams still open when the server closes stay
// parked in Recv — the in-process Stream has no cancel — and end with the
// process, right after the report.
type openLoop struct {
	g         *gateway
	origin    time.Time
	stopTurns time.Duration // no session turn is sent at or after this offset
	rec       *recorder     // traced run only

	mu     sync.Mutex
	phases [][]*reqRec // guarded by mu
	seq    uint64      // guarded by mu
	// closed freezes the records: once snapshot sets it, receivers still
	// draining frames delivered before the server closed record nothing.
	closed bool // guarded by mu
}

func (l *openLoop) send(a *arrival) {
	r := &reqRec{class: a.class, due: a.at, want: a.sub.DecodeTokens,
		chainToks: len(a.sub.PrefixHashes) * kvcache.DefaultBlockTokens}
	if l.rec != nil {
		r.times = make([]time.Duration, 0, r.want)
	}
	st := &server.Stream{}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.phases[a.phase] = append(l.phases[a.phase], r)
	l.seq++
	id := l.seq
	r.sent = time.Since(l.origin)
	l.mu.Unlock()
	var err error
	if l.rec != nil {
		sid, t0 := l.rec.begin()
		err = l.g.srv.SubmitTo(a.sub, st)
		l.rec.end(sid, 0, id, spanSubmit, "", t0)
	} else {
		err = l.g.srv.SubmitTo(a.sub, st)
	}
	ack := time.Since(l.origin)
	l.mu.Lock()
	if !l.closed {
		r.ack = ack
		if err != nil {
			r.fail("submit: %v", err)
		}
	}
	l.mu.Unlock()
	if err != nil {
		return
	}
	go l.receive(a, r, st, id)
}

func (l *openLoop) receive(a *arrival, r *reqRec, st *server.Stream, id uint64) {
	for {
		ev, ok := st.Recv()
		if !ok {
			return
		}
		at := time.Since(l.origin)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		r.token(ev.Token, ev.Done, at)
		if ev.Done {
			r.serverTTFT = st.Result().TTFT
		}
		l.mu.Unlock()
		if ev.Done {
			break
		}
	}
	if l.rec != nil {
		l.mu.Lock()
		clientSpans(l.rec, id, r)
		l.mu.Unlock()
	}
	if a.next == nil {
		return
	}
	next := *a.next
	next.at = time.Since(l.origin) + a.think
	if next.at >= l.stopTurns {
		return
	}
	time.Sleep(time.Until(l.origin.Add(next.at)))
	l.send(&next)
}

// run sends the scheduled arrivals (sorted by due time) and returns when
// the last is sent.
func (l *openLoop) run(arrivals []*arrival) {
	for _, a := range arrivals {
		if d := time.Until(l.origin.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		l.send(a)
	}
}

// snapshot freezes the records and returns them for reading once the
// server has closed.
func (l *openLoop) snapshot() [][]*reqRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	out := make([][]*reqRec, len(l.phases))
	for i, p := range l.phases {
		out[i] = append([]*reqRec(nil), p...)
	}
	return out
}

// livePass is one measured pass of an open-loop workload.
type livePass struct {
	phases   [][]*reqRec
	wall     time.Duration
	cpu      time.Duration
	kvBefore server.KVStats
	kvAfter  server.KVStats
	dropped  uint64
	accepted int
	releg    int
}

// runLivePass drives arrivals against g for e.seconds (sends stop at
// sendFor, session turns too), closes the server and reports.
func runLivePass(e *env, g *gateway, arrivals []*arrival, nPhases int, sendFor time.Duration, rec *recorder) *livePass {
	l := &openLoop{g: g, rec: rec, stopTurns: sendFor, phases: make([][]*reqRec, nPhases)}
	runtime.GC() // set-up garbage is not the measured pass's
	p := &livePass{kvBefore: g.srv.KVStats()}
	served0 := g.srv.Stats().Served
	dropped0 := g.srv.DroppedEvents()
	cpu0 := cpuTime()
	l.origin = time.Now()
	l.run(arrivals)
	time.Sleep(time.Until(l.origin.Add(time.Duration(e.seconds * float64(time.Second)))))
	g.srv.Close()
	p.wall = time.Since(l.origin)
	p.cpu = cpuTime() - cpu0
	p.phases = l.snapshot()
	p.kvAfter = g.srv.KVStats()
	p.dropped = g.srv.DroppedEvents() - dropped0
	p.accepted = g.srv.Stats().Served - served0
	p.releg = g.relegations()
	return p
}

// checkLivePass applies the correctness checks common to the open-loop
// workloads and returns the stats of every phase.
func checkLivePass(res *result, p *livePass, spec liveSpec, windows []time.Duration) []phaseStats {
	var all []phaseStats
	sent := 0
	for i, recs := range p.phases {
		ph := &phase{timescale: spec.timescale, window: windows[i], reqs: recs}
		st := ph.stats()
		res.check(st.accounted(), "phase %d: sent %d != completed %d + failed %d + unfinished %d", i, st.sent, st.completed, st.failed, st.unfinished)
		res.attempted += st.sent
		res.failed += st.failed
		sent += st.sent
		for _, r := range recs {
			if r.err != "" {
				res.check(false, "request failed: %s", r.err)
				continue
			}
			if r.got == 0 {
				continue
			}
			client := virtualMS(r.first-r.due, spec.timescale)
			server := float64(r.serverTTFT) / float64(time.Millisecond)
			res.check(!r.done || server <= client+1e-6, "server TTFT %.3fms above client-observed %.3fms", server, client)
		}
		lateP99 := percentile(st.late, 0.99)
		res.check(lateP99 < lateLimitMS, "phase %d: load generator p99 lateness %.2fms over %vms", i, lateP99, lateLimitMS)
		all = append(all, st)
	}
	res.check(p.accepted == sent, "gateway accepted %d requests, clients sent %d", p.accepted, sent)
	res.check(p.dropped == 0, "gateway dropped %d stream events", p.dropped)
	return all
}

// liveEndToEnd sets the run-level end-to-end metrics.
func liveEndToEnd(res *result, p *livePass, setups []float64, all []phaseStats) {
	completed, tokens := 0, 0
	for _, st := range all {
		completed += st.completed
		tokens += st.tokens
	}
	res.set("setup_s", median(setups), "s")
	res.set("req_per_s", float64(completed)/p.wall.Seconds(), "1/s")
	res.set("tok_per_s", float64(tokens)/p.wall.Seconds(), "1/s")
	if rss, err := peakRSSMB("self"); err == nil {
		res.set("rss_peak_mb", rss, "MiB")
	} else {
		res.check(false, "reading VmHWM: %v", err)
	}
}

// liveLayers sets the per-layer metrics of a traced in-process pass.
func liveLayers(res *result, rec *recorder, p *livePass, all []phaseStats, spec liveSpec, mc model.Config, tracedCPUPerReq, cpuPerReq float64) {
	setLayerDefaults(res)
	schedLayerMetrics(res, rec)
	res.set("server.submit_us_p50", rec.durPct(spanSubmit, 0.5), "us")
	res.set("server.submit_us_p99", rec.durPct(spanSubmit, 0.99), "us")
	res.set("route.pick_us_p50", rec.durPct(spanRoute, 0.5), "us")
	batches := rec.counter("sched.batches")
	if batches > 0 {
		res.set("server.tokens_per_iter", rec.counter("sched.new_tokens")/batches, "count")
	}
	// KV imports are modeled execution the serving loop sleeps for on top
	// of the batch's compute.
	xfer := float64(p.kvAfter.PrefixTransferTokens-p.kvBefore.PrefixTransferTokens) * mc.Model.KVBytesPerToken()
	modeled := rec.counter("iter.modeled_s")
	if spec.kvTransferGBps > 0 {
		modeled += xfer / (spec.kvTransferGBps * 1e9)
	}
	overrun := 0.0
	if actual := rec.counter("iter.actual_s"); actual > 0 {
		overrun = 1 - modeled/actual
	}
	res.set("server.exec_overrun_share", overrun, "share")
	res.check(overrun < overrunLimit, "iterations overran modeled execution by %.1f%% (limit %.0f%%)", overrun*100, overrunLimit*100)
	tokens := 0
	var late []float64
	for _, st := range all {
		tokens += st.tokens
		late = append(late, st.late...)
	}
	res.set("server.cpu_us_per_token", float64(p.cpu)/float64(time.Microsecond)/float64(tokens), "us")
	res.set("server.dropped_events", float64(p.dropped), "count")
	res.set("loadgen.late_ms_p99", percentile(late, 0.99), "ms")
	res.set("trace.overhead_share", tracedCPUPerReq/cpuPerReq-1, "share")
	res.set("cpu_ms_per_req", cpuPerReq/float64(time.Millisecond), "ms")
	hit, xferTok, chain := kvShares(p)
	if chain > 0 {
		res.set("kv.hit_share", hit, "share")
		res.set("kv.transfer_share", xferTok, "share")
	}
	res.set("kv.evictions", float64(evictions(p)), "count")
	res.set("kv.transfer_fallbacks", float64(p.kvAfter.TransferFallbacks-p.kvBefore.TransferFallbacks), "count")
}

// kvShares is prompt tokens credited from prefix caches (local or
// imported) and imported across replicas, each over the tokens the
// submitted prefix chains covered.
func kvShares(p *livePass) (hit, xfer float64, chain int) {
	for _, recs := range p.phases {
		for _, r := range recs {
			chain += r.chainToks
		}
	}
	if chain == 0 {
		return 0, 0, 0
	}
	hit = float64(p.kvAfter.PrefixHitTokens-p.kvBefore.PrefixHitTokens) / float64(chain)
	xfer = float64(p.kvAfter.PrefixTransferTokens-p.kvBefore.PrefixTransferTokens) / float64(chain)
	return hit, xfer, chain
}

func evictions(p *livePass) uint64 {
	return p.kvAfter.HBMEvictions - p.kvBefore.HBMEvictions + p.kvAfter.DRAMEvictions - p.kvBefore.DRAMEvictions
}

// runLive runs the untraced pass, and for a traced run a second, traced
// pass on a fresh gateway. check applies the workload's own checks to each
// pass and, when report is set, sets its end-to-end metrics.
func runLive(e *env, spec liveSpec, arrivals func() []*arrival, nPhases int, windows []time.Duration, sendFor time.Duration,
	check func(res *result, p *livePass, all []phaseStats, report bool)) (*result, error) {
	res := newResult()
	mc := model.Llama3_8B_A100_TP1()
	g, setups, err := setupGateway(mc, spec, nil)
	if err != nil {
		return nil, err
	}
	p := runLivePass(e, g, arrivals(), nPhases, sendFor, nil)
	all := checkLivePass(res, p, spec, windows)
	check(res, p, all, !e.traced)
	sent := 0
	for _, st := range all {
		sent += st.sent
	}
	cpuPerReq := float64(p.cpu) / float64(sent)
	if !e.traced {
		liveEndToEnd(res, p, setups, all)
		return res, nil
	}
	rec := newRecorder()
	tg, err := startGateway(mc, spec, rec)
	if err != nil {
		return nil, err
	}
	tp := runLivePass(e, tg, arrivals(), nPhases, sendFor, rec)
	tall := checkLivePass(res, tp, spec, windows)
	check(res, tp, tall, false)
	tsent := 0
	for _, st := range tall {
		tsent += st.sent
	}
	liveLayers(res, rec, tp, tall, spec, mc, float64(tp.cpu)/float64(tsent), cpuPerReq)
	writeSpans(res, rec, e)
	return res, nil
}

// qos_overload: the paper's scenario in-process. The Table 3 mix (Q3 the
// free tier) at Azure-Conv token counts arrives open-loop in two
// fixed-rate Poisson phases: a nominal phase below capacity that supplies
// the latency metrics, then an overload phase above what the replicas
// sustain that supplies goodput and SLO attainment.
const (
	overloadReplicas  = 12
	overloadTimescale = 12
	nominalQPS        = 24 // virtual requests/s, about 45% of 12 replicas
	overloadQPS       = 80 // about 1.5 times what they sustain
	nominalShare      = 0.6
	overloadShare     = 0.3 // the rest of the run drains
)

func overloadWindows(seconds float64) (nominal, overload time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return time.Duration(float64(total) * nominalShare), time.Duration(float64(total) * overloadShare)
}

// poissonTimes places n arrivals uniformly at random over window, sorted:
// a Poisson process conditioned on its count, so every seed offers the
// same load and only the timing varies.
func poissonTimes(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// poissonArrivals draws one phase's arrivals, qps virtual requests/s over a
// wall window starting at offset, with Table 3 classes and Azure-Conv
// token counts.
func poissonArrivals(seed int64, phaseIdx int, qps, timescale float64, offset, window time.Duration) []*arrival {
	n := int(math.Round(qps * window.Seconds() * timescale))
	reqs, err := workload.Generate(workload.Spec{
		Dataset:  azureConv8K(),
		Tiers:    table3Tiers(),
		Arrivals: workload.Poisson{QPS: qps}, // times replaced below
		Requests: n,
		Seed:     seed,
	})
	if err != nil {
		panic(fmt.Sprintf("workload spec is constant and valid: %v", err))
	}
	times := poissonTimes(rand.New(rand.NewSource(seed)), n, window)
	out := make([]*arrival, n)
	for i, r := range reqs {
		out[i] = &arrival{at: offset + times[i], phase: phaseIdx, class: r.Class,
			sub: server.Submission{App: r.App, Class: r.Class.Name, Priority: r.Priority,
				PromptTokens: r.PromptTokens, DecodeTokens: r.DecodeTokens}}
	}
	return out
}

func runQoSOverload(e *env) (*result, error) {
	spec := liveSpec{
		replicas:  overloadReplicas,
		timescale: overloadTimescale,
		balancer:  func(*predictor.Forest) cluster.GatewayBalancer { return &cluster.AtomicRoundRobin{} },
	}
	nominal, overload := overloadWindows(e.seconds)
	arrivals := func() []*arrival {
		a := poissonArrivals(e.seed, 0, nominalQPS, overloadTimescale, 0, nominal)
		return append(a, poissonArrivals(e.seed+1<<32, 1, overloadQPS, overloadTimescale, nominal, overload)...)
	}
	return runLive(e, spec, arrivals, 2, []time.Duration{nominal, overload}, nominal+overload,
		func(res *result, p *livePass, all []phaseStats, report bool) {
			nom, over := all[0], all[1]
			res.check(p.releg > 0, "overload phase relegated nothing")
			res.check(over.attainment() < 1, "overload phase met every SLO: it did not overload")
			if !report {
				return
			}
			// Latency is taken from the nominal phase only, before the
			// overload starts: gaps after that belong to the overload.
			nom.gaps = nom.gaps[:0]
			for _, r := range p.phases[0] {
				if r.err != "" {
					continue
				}
				for i, g := range r.gaps {
					if r.first+sumDur(r.gaps[:i+1]) < nominal {
						nom.gaps = append(nom.gaps, virtualMS(g, overloadTimescale))
					}
				}
			}
			latencyMetrics(res, nom, p99)
			ph := &phase{timescale: overloadTimescale, window: overload}
			res.set("slo_attain_share", over.attainment(), "share")
			res.set("goodput_rps", ph.goodput(over), "1/s")
			res.note("nominal: %d sent, %d completed; overload: %d sent, %d met, %d unfinished; %d relegations",
				nom.sent, nom.completed, over.sent, over.met, over.unfinished, p.releg)
		})
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// session_prefix: multi-turn chat sessions whose prompts grow turn by
// turn, so each turn's prefix chain extends the last. Sessions start
// open-loop; turns within a session wait for the previous reply plus a
// think time. Four replicas route with the predicted balancer over the
// global prefix index, importing cached prefixes across replicas. The
// HBM tier is sized so the sessions' working set overflows it: evictions
// and recomputes happen beside hits and transfers.
const (
	sessionReplicas  = 4
	sessionTimescale = 7
	sessionQPS       = 3.5 // virtual session starts/s
	sessionTurns     = 8
	sessionKVTokens  = 1 << 17 // HBM prefix tier per replica
	sessionThinkS    = 2.0     // mean virtual think time between turns
	sessionXferGBps  = 64
	sessionSendShare = 0.85 // the rest of the run drains
)

var (
	sessionFirst    = workload.TokenDist{P50: 1800, P90: 2200, Max: 2400}
	sessionFollowUp = workload.TokenDist{P50: 150, P90: 250, Max: 600}
	sessionDecode   = workload.TokenDist{P50: 50, P90: 80, Max: 200}
)

func sessionArrivals(seed int64, window time.Duration) []*arrival {
	rng := rand.New(rand.NewSource(seed))
	q1 := qos.Table3()[0]
	// Session starts are stratified, one uniformly placed in each of n
	// equal slots: still open-loop, but without the clumps of a Poisson
	// draw, which here would set the TTFT tail by how many first turns a
	// seed happens to stack on one replica rather than by the cache.
	n := int(math.Round(sessionQPS * window.Seconds() * sessionTimescale))
	slot := window / time.Duration(n)
	out := make([]*arrival, 0, n)
	for i := 0; i < n; i++ {
		t := time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))
		key := rng.Uint64()
		prompt := sessionFirst.Sample(rng)
		var first, prev *arrival
		for turn := 0; turn < sessionTurns; turn++ {
			decode := sessionDecode.Sample(rng)
			a := &arrival{class: q1, sub: server.Submission{App: "chat", Class: q1.Name, Priority: qos.High,
				PromptTokens: prompt, DecodeTokens: decode,
				PrefixHashes: kvcache.SyntheticChain(key, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens))},
				think: time.Duration(rng.ExpFloat64() * sessionThinkS / sessionTimescale * float64(time.Second))}
			if prev == nil {
				first = a
			} else {
				prev.next = a
			}
			prev = a
			prompt += decode + sessionFollowUp.Sample(rng)
		}
		first.at = t
		out = append(out, first)
	}
	return out
}

func runSessionPrefix(e *env) (*result, error) {
	spec := liveSpec{
		replicas:  sessionReplicas,
		timescale: sessionTimescale,
		balancer: func(f *predictor.Forest) cluster.GatewayBalancer {
			mc := model.Llama3_8B_A100_TP1()
			return &cluster.PredictedLatency{Predictor: f, Transfer: &cluster.TransferModel{
				BytesPerToken: mc.Model.KVBytesPerToken(),
				BandwidthBps:  sessionXferGBps * 1e9,
				MinTokens:     cluster.DefaultMinMatchTokens,
			}}
		},
		kv:             kvcache.Config{CapacityTokens: sessionKVTokens},
		kvTransferGBps: sessionXferGBps,
	}
	total := time.Duration(e.seconds * float64(time.Second))
	send := time.Duration(float64(total) * sessionSendShare)
	arrivals := func() []*arrival { return sessionArrivals(e.seed, send) }
	return runLive(e, spec, arrivals, 1, []time.Duration{send}, send,
		func(res *result, p *livePass, all []phaseStats, report bool) {
			hit, xfer, _ := kvShares(p)
			res.check(hit > 0 && hit < 1, "prefix hit share %.3f outside (0,1)", hit)
			res.check(evictions(p) > 0, "no prefix-cache evictions: the working set fit")
			if !report {
				return
			}
			st := all[0]
			latencyMetrics(res, st, p99)
			ph := &phase{timescale: sessionTimescale, window: send}
			res.set("slo_attain_share", st.attainment(), "share")
			res.set("goodput_rps", ph.goodput(st), "1/s")
			res.note("%d sent, %d completed, %d unfinished; hit share %.3f, transfer share %.3f, %d evictions",
				st.sent, st.completed, st.unfinished, hit, xfer, evictions(p))
		})
}
