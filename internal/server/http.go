package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qoserve/internal/kvcache"
	"qoserve/internal/metrics"
	"qoserve/internal/qos"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// HTTP request/response wire types for the qoserved API.

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	App          string `json:"app,omitempty"`
	Class        string `json:"class"`
	Priority     string `json:"priority,omitempty"` // "high" (default) or "low"
	PromptTokens int    `json:"prompt_tokens"`
	DecodeTokens int    `json:"decode_tokens"`
	// PrefixChain is the prompt's prefix hash chain in wire form:
	// "-"-joined hex block hashes (kvcache.FormatChain). Empty means the
	// prompt shares no prefix.
	PrefixChain string `json:"prefix_chain,omitempty"`
}

// TokenEvent is one line of the streamed generate response.
type TokenEvent struct {
	Event string  `json:"event"` // "token" or "done"
	Token int     `json:"token,omitempty"`
	AtMS  float64 `json:"at_ms"`
	// Final-event fields.
	TTFTMS   float64 `json:"ttft_ms,omitempty"`
	TTLTMS   float64 `json:"ttlt_ms,omitempty"`
	Violated bool    `json:"violated,omitempty"`
	Relegate bool    `json:"relegated,omitempty"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	VirtualNowMS  float64 `json:"virtual_now_ms"`
	Pending       int     `json:"pending"`
	Served        int     `json:"served"`
	Iterations    uint64  `json:"iterations"`
	Tokens        uint64  `json:"tokens"`
	ViolationRate float64 `json:"violation_rate"`
	DroppedEvents uint64  `json:"dropped_events"`
	Replicas      int     `json:"replicas"`
}

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	// Error is a human-readable description of what was rejected.
	Error string `json:"error"`
	// Field names the offending request field (JSON naming) when the
	// error concerns one; empty otherwise.
	Field string `json:"field,omitempty"`
}

// TracedEvent is a scheduler event inside a /debug/trace iteration record.
type TracedEvent struct {
	AtMS   float64 `json:"at_ms"`
	Kind   string  `json:"kind"` // admission | relegation | boost | preemption
	Req    uint64  `json:"req"`
	Class  string  `json:"class,omitempty"`
	Reason string  `json:"reason,omitempty"`
}

// TracedPrefill is one prefill allocation inside a traced batch.
type TracedPrefill struct {
	Req      uint64 `json:"req"`
	Tokens   int    `json:"tokens"`
	CtxStart int    `json:"ctx_start"`
}

// TracedIteration is one scheduler iteration in the /debug/trace response.
type TracedIteration struct {
	Seq           uint64          `json:"seq"`
	Policy        string          `json:"policy"`
	PlannedAtMS   float64         `json:"planned_at_ms"`
	CompletedAtMS float64         `json:"completed_at_ms"`
	ChunkTokens   int             `json:"chunk_tokens"`
	Prefill       []TracedPrefill `json:"prefill,omitempty"`
	Decodes       int             `json:"decodes"`
	PredictedMS   float64         `json:"predicted_ms,omitempty"`
	ActualMS      float64         `json:"actual_ms"`
	QueueMain     int             `json:"queue_main"`
	QueueReleg    int             `json:"queue_relegated"`
	QueueDecode   int             `json:"queue_decode"`
	Events        []TracedEvent   `json:"events,omitempty"`
}

// TraceResponse is the GET /debug/trace body.
type TraceResponse struct {
	Enabled    bool              `json:"enabled"`
	Capacity   int               `json:"capacity,omitempty"`
	Total      uint64            `json:"total"`
	Iterations []TracedIteration `json:"iterations"`
}

// ReplicaLoad is one replica's live queue state in the GET /debug/load
// body.
type ReplicaLoad struct {
	Replica int `json:"replica"`
	// Role is "colocated", "prefill", or "decode".
	Role string `json:"role"`
	Up   bool   `json:"up"`
	// Load is the number of unfinished requests routed to this replica.
	Load int `json:"load"`
	// The replica.LoadSnapshot fields, one by one.
	QueuedRequests       int `json:"queued_requests"`
	PendingPrefillTokens int `json:"pending_prefill_tokens"`
	ActiveDecodes        int `json:"active_decodes"`
	SumDecodeCtx         int `json:"sum_decode_ctx"`
	MaxDecodeCtx         int `json:"max_decode_ctx"`
	ChunkBudgetTokens    int `json:"chunk_budget_tokens"`
	// CachedChainBlocks is prefix blocks resident in this replica's cache,
	// both tiers.
	CachedChainBlocks int `json:"cached_chain_blocks"`
	// HBMUtilization / DRAMUtilization are each cache tier's fill fraction.
	HBMUtilization  float64 `json:"hbm_utilization"`
	DRAMUtilization float64 `json:"dram_utilization"`
	// IndexEpoch is this replica's publication epoch in the global prefix
	// index; 0 when nothing was published yet.
	IndexEpoch uint64 `json:"index_epoch"`
}

// LoadResponse is the GET /debug/load body.
type LoadResponse struct {
	Mode     string        `json:"mode"`
	Replicas []ReplicaLoad `json:"replicas"`
}

// QueuesResponse is the GET /debug/queues body.
type QueuesResponse struct {
	Policy         string  `json:"policy"`
	VirtualNowMS   float64 `json:"virtual_now_ms"`
	Pending        int     `json:"pending"`
	Served         int     `json:"served"`
	QueueMain      int     `json:"queue_main"`
	QueueRelegated int     `json:"queue_relegated"`
	QueueDecode    int     `json:"queue_decode"`
	// QueuesReported is false when the scheduler cannot report depths;
	// the queue fields are then zero.
	QueuesReported bool   `json:"queues_reported"`
	TraceEnabled   bool   `json:"trace_enabled"`
	Iterations     uint64 `json:"iterations"`
	// Replicas is the number of serving loops the depths are summed over.
	Replicas int `json:"replicas"`
}

// Handler exposes the server over HTTP:
//
//	POST /v1/generate  — submit a request; the response streams one JSON
//	                     object per token (chunked), ending with a "done"
//	                     event carrying the outcome.
//	GET  /v1/stats     — serving counters and the running violation rate.
//	GET  /v1/classes   — the configured QoS classes.
//	GET  /metrics      — Prometheus text exposition: counters, queue-depth
//	                     gauges, the iteration-latency histogram, and
//	                     rolling per-class TTFT/TTLT/TBT and violation
//	                     gauges.
//	GET  /debug/trace  — recent scheduler iterations (chunk size, batch
//	                     composition, predicted vs. measured latency,
//	                     queue depths, relegation/boost/admission events)
//	                     as JSON; requires Config.TraceDepth > 0.
//	GET  /debug/queues — live queue-depth snapshot.
//
// Non-2xx responses carry an ErrorResponse JSON body.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/classes", s.handleClasses)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /debug/queues", s.handleDebugQueues)
	mux.HandleFunc("GET /debug/load", s.handleDebugLoad)
	return mux
}

// handleDebugLoad serves every replica's live load snapshot — the same
// queue state snapshot-aware balancers score — plus its tier role and
// liveness.
func (s *Server) handleDebugLoad(w http.ResponseWriter, _ *http.Request) {
	mode := "colocated"
	if s.prefillReps > 0 {
		mode = "disagg"
	}
	resp := LoadResponse{Mode: mode, Replicas: make([]ReplicaLoad, 0, len(s.reps))}
	for i, rp := range s.reps {
		snap := rp.loadSnapshot()
		rp.kvMu.Lock()
		hbmBlocks, dramBlocks := rp.core.KV().CachedBlocks()
		hbmUtil, dramUtil := rp.core.KV().TierUtilization()
		rp.kvMu.Unlock()
		resp.Replicas = append(resp.Replicas, ReplicaLoad{
			Replica:              i,
			Role:                 s.roleOf(i),
			Up:                   !rp.down.Load(),
			Load:                 int(rp.load.Load()),
			QueuedRequests:       snap.QueuedRequests,
			PendingPrefillTokens: snap.PendingPrefillTokens,
			ActiveDecodes:        snap.ActiveDecodes,
			SumDecodeCtx:         snap.SumDecodeCtx,
			MaxDecodeCtx:         snap.MaxDecodeCtx,
			ChunkBudgetTokens:    snap.ChunkBudgetTokens,
			CachedChainBlocks:    hbmBlocks + dramBlocks,
			HBMUtilization:       hbmUtil,
			DRAMUtilization:      dramUtil,
			IndexEpoch:           s.prefixIdx.Epoch(i),
		})
	}
	writeJSON(w, resp)
}

// handleMetrics exposes the instrumentation in Prometheus text format so
// standard scrapers can watch a qoserved instance. Per-class latency and
// violation gauges are computed over the trailing Config.MetricsWindow of
// virtual time; everything else is lifetime.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	vnow := s.vnow()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w, vnow, s.outcomes(vnow))
}

// writeMetrics renders the /metrics body at virtual time vnow from the
// outcome view v and the live counters.
func (s *Server) writeMetrics(w io.Writer, vnow sim.Time, v outcomeView) {
	served := s.accepted.Load()
	pending := int(s.inFlight.Load())
	iterations, tokens := s.iterations.Load(), s.tokens.Load()
	prefillTokens, decodeTokens := s.prefillTokens.Load(), s.decodeTokens.Load()
	dropped := s.droppedEvents.Load()
	queues := s.Queues()
	cum, hsum, htotal := s.histSnapshot()
	relegations, hasReleg := s.relegations()
	recent := v.recent

	p := promWriter{w}

	p.header("qoserve_requests_total", "Requests accepted since start.", "counter")
	p.intValue("qoserve_requests_total", "", served)
	p.header("qoserve_requests_pending", "Requests not yet finished.", "gauge")
	p.intValue("qoserve_requests_pending", "", uint64(pending))
	p.header("qoserve_iterations_total", "Executed batches.", "counter")
	p.intValue("qoserve_iterations_total", "", iterations)
	p.header("qoserve_tokens_total", "Tokens processed.", "counter")
	p.intValue("qoserve_tokens_total", "", tokens)
	p.header("qoserve_prefill_tokens_total", "Prompt tokens processed.", "counter")
	p.intValue("qoserve_prefill_tokens_total", "", prefillTokens)
	p.header("qoserve_decode_tokens_total", "Output tokens generated.", "counter")
	p.intValue("qoserve_decode_tokens_total", "", decodeTokens)
	p.header("qoserve_violation_ratio", "Lifetime SLO violation fraction.", "gauge")
	p.value("qoserve_violation_ratio", "", v.total().ViolationRate())
	p.header("qoserve_virtual_seconds", "Virtual clock position.", "gauge")
	p.value("qoserve_virtual_seconds", "", vnow.Seconds())
	p.header("qoserve_stream_dropped_events_total", "Token events discarded on full stream buffers.", "counter")
	p.intValue("qoserve_stream_dropped_events_total", "", dropped)
	p.header("qoserve_stream_table_shrinks_total", "Per-replica stream-table rebuilds after bursts.", "counter")
	p.intValue("qoserve_stream_table_shrinks_total", "", s.streamShrinks.Load())
	p.header("qoserve_gateway_replicas", "Serving loops in this gateway.", "gauge")
	p.intValue("qoserve_gateway_replicas", "", uint64(len(s.reps)))

	if s.prefillReps > 0 {
		up := 0
		for i := 0; i < s.prefillReps; i++ {
			if !s.reps[i].down.Load() {
				up++
			}
		}
		p.header("qoserve_disagg_tier_replicas", "Serving loops per disaggregation tier.", "gauge")
		p.intValue("qoserve_disagg_tier_replicas", `{tier="prefill"}`, uint64(s.prefillReps))
		p.intValue("qoserve_disagg_tier_replicas", `{tier="decode"}`, uint64(len(s.reps)-s.prefillReps))
		p.header("qoserve_disagg_prefill_replicas_up", "Healthy prefill-tier replicas.", "gauge")
		p.intValue("qoserve_disagg_prefill_replicas_up", "", uint64(up))
		p.header("qoserve_disagg_handoffs_total", "Prefill-to-decode KV handoffs launched.", "counter")
		p.intValue("qoserve_disagg_handoffs_total", "", s.handoffs.Load())
		p.header("qoserve_disagg_transfer_tokens_total", "Prompt tokens whose KV pages crossed the tier interconnect.", "counter")
		p.intValue("qoserve_disagg_transfer_tokens_total", "", s.transferTokens.Load())
		p.header("qoserve_gateway_retries_total", "Re-prefills after prefill-tier crashes.", "counter")
		p.intValue("qoserve_gateway_retries_total", "", s.retries.Load())
		p.header("qoserve_gateway_lost_tokens_total", "Tokens of progress discarded by prefill-tier crashes.", "counter")
		p.intValue("qoserve_gateway_lost_tokens_total", "", s.lostTokens.Load())
		p.header("qoserve_gateway_failed_requests_total", "Requests permanently failed with a reason.", "counter")
		p.intValue("qoserve_gateway_failed_requests_total", "", uint64(s.failedReqs.Load()))
	}

	kv := s.KVStats()
	p.header("qoserve_kvcache_prefix_hit_tokens_total", "Prompt tokens served from cached prefixes instead of prefill.", "counter")
	p.intValue("qoserve_kvcache_prefix_hit_tokens_total", "", kv.PrefixHitTokens)
	p.header("qoserve_kvcache_prefix_reload_tokens_total", "Hit tokens promoted from the DRAM spill tier.", "counter")
	p.intValue("qoserve_kvcache_prefix_reload_tokens_total", "", kv.ReloadTokens)
	p.header("qoserve_kvcache_tier_evictions_total", "Prefix blocks dropped from each cache tier.", "counter")
	p.intValue("qoserve_kvcache_tier_evictions_total", `{tier="hbm"}`, kv.HBMEvictions)
	p.intValue("qoserve_kvcache_tier_evictions_total", `{tier="dram"}`, kv.DRAMEvictions)
	p.header("qoserve_kvcache_demotions_total", "Prefix blocks demoted HBM to DRAM under pressure.", "counter")
	p.intValue("qoserve_kvcache_demotions_total", "", kv.Demotions)
	p.header("qoserve_kvcache_cached_blocks", "Prefix blocks currently resident by tier.", "gauge")
	p.intValue("qoserve_kvcache_cached_blocks", `{tier="hbm"}`, uint64(kv.CachedHBMBlocks))
	p.intValue("qoserve_kvcache_cached_blocks", `{tier="dram"}`, uint64(kv.CachedDRAMBlocks))
	p.header("qoserve_kvcache_prefix_transfer_tokens_total", "Hit tokens imported from another replica's cache over the interconnect.", "counter")
	p.intValue("qoserve_kvcache_prefix_transfer_tokens_total", "", kv.PrefixTransferTokens)
	p.header("qoserve_kvcache_transfer_fallbacks_total", "Planned KV imports abandoned at admission and recomputed.", "counter")
	p.intValue("qoserve_kvcache_transfer_fallbacks_total", "", kv.TransferFallbacks)
	p.header("qoserve_kvcache_import_seconds_total", "Virtual seconds prefix KV imports occupied the replicas' inbound links.", "counter")
	p.value("qoserve_kvcache_import_seconds_total", "", kv.ImportSeconds)
	p.header("qoserve_kvcache_import_stall_seconds_total", "Virtual seconds batches waited for prefix KV imports still in flight.", "counter")
	p.value("qoserve_kvcache_import_stall_seconds_total", "", kv.ImportStallSeconds)

	if hasReleg {
		p.header("qoserve_relegations_total", "Requests eagerly relegated.", "counter")
		p.intValue("qoserve_relegations_total", "", uint64(relegations))
	}
	if queues.Reported {
		p.header("qoserve_queue_depth", "Scheduler queue depths by queue.", "gauge")
		p.intValue("qoserve_queue_depth", `{queue="main"}`, uint64(queues.Main))
		p.intValue("qoserve_queue_depth", `{queue="relegated"}`, uint64(queues.Relegated))
		p.intValue("qoserve_queue_depth", `{queue="decode"}`, uint64(queues.Decode))
	}
	if s.tracer != nil {
		p.header("qoserve_trace_iterations_total", "Iterations recorded by the tracer.", "counter")
		p.intValue("qoserve_trace_iterations_total", "", s.tracer.Total())
		p.header("qoserve_trace_events_total", "Scheduler events recorded by the tracer.", "counter")
		p.intValue("qoserve_trace_events_total", "", s.tracer.Events())
	}

	p.histogramMetric("qoserve_iteration_virtual_seconds",
		"Iteration (batch) execution time in virtual seconds.", cum, hsum, htotal)

	// Rolling per-class gauges over the trailing metrics window. Classes
	// with no traffic in the window report NaN quantiles, the Prometheus
	// convention for undefined summaries.
	quantiles := []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}}

	p.header("qoserve_class_ttft_seconds", "Rolling time-to-first-token quantiles by class.", "gauge")
	for _, c := range s.cfg.Classes {
		f := metrics.ByClass(c.Name)
		for _, qq := range quantiles {
			p.value("qoserve_class_ttft_seconds",
				fmt.Sprintf(`{class=%q,quantile=%q}`, c.Name, qq.label), recent.TTFTQuantile(f, qq.q))
		}
	}
	p.header("qoserve_class_ttlt_seconds", "Rolling completion-latency quantiles by class.", "gauge")
	for _, c := range s.cfg.Classes {
		f := metrics.ByClass(c.Name)
		for _, qq := range quantiles {
			p.value("qoserve_class_ttlt_seconds",
				fmt.Sprintf(`{class=%q,quantile=%q}`, c.Name, qq.label), recent.TTLTQuantile(f, qq.q))
		}
	}
	p.header("qoserve_class_max_tbt_seconds", "Rolling worst inter-token gap p99 by class.", "gauge")
	for _, c := range s.cfg.Classes {
		p.value("qoserve_class_max_tbt_seconds",
			fmt.Sprintf(`{class=%q,quantile="0.99"}`, c.Name),
			recent.MaxTBTQuantile(metrics.ByClass(c.Name), 0.99))
	}
	p.header("qoserve_class_violation_ratio", "Rolling SLO violation fraction by class.", "gauge")
	for _, c := range s.cfg.Classes {
		p.value("qoserve_class_violation_ratio",
			fmt.Sprintf(`{class=%q}`, c.Name), recent.ViolationRate(metrics.ByClass(c.Name)))
	}
	p.header("qoserve_class_requests_total", "Lifetime requests by class.", "counter")
	for _, c := range s.cfg.Classes {
		p.intValue("qoserve_class_requests_total",
			fmt.Sprintf(`{class=%q}`, c.Name), uint64(v.lifetime[c.Name].Requests))
	}
}

// handleDebugTrace serves the most recent iteration records. Query
// parameter n bounds the count (default 100). With tracing disabled the
// response reports enabled=false and no records.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	n := 100
	if arg := r.URL.Query().Get("n"); arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "n", "must be a positive integer, got %q", arg)
			return
		}
		n = v
	}
	resp := TraceResponse{Iterations: []TracedIteration{}}
	if s.tracer != nil {
		resp.Enabled = true
		resp.Capacity = s.tracer.Cap()
		resp.Total = s.tracer.Total()
		for _, it := range s.tracer.Snapshot(n) {
			resp.Iterations = append(resp.Iterations, tracedIteration(it))
		}
	}
	writeJSON(w, resp)
}

func tracedIteration(it trace.Iteration) TracedIteration {
	out := TracedIteration{
		Seq:           it.Seq,
		Policy:        it.Policy,
		PlannedAtMS:   msT(it.PlannedAt),
		CompletedAtMS: msT(it.CompletedAt),
		ChunkTokens:   it.Batch.PrefillTokens,
		Decodes:       it.Batch.Decodes,
		PredictedMS:   msT(it.Predicted),
		ActualMS:      msT(it.Actual),
		QueueMain:     it.QueueMain,
		QueueReleg:    it.QueueRelegated,
		QueueDecode:   it.QueueDecode,
	}
	for _, pf := range it.Batch.Prefill {
		out.Prefill = append(out.Prefill, TracedPrefill{Req: pf.Req, Tokens: pf.Tokens, CtxStart: pf.CtxStart})
	}
	for _, ev := range it.Events {
		out.Events = append(out.Events, TracedEvent{
			AtMS: msT(ev.At), Kind: ev.Kind.String(), Req: ev.Req, Class: ev.Class, Reason: ev.Reason,
		})
	}
	return out
}

// handleDebugQueues serves a live queue snapshot, summed over replicas.
func (s *Server) handleDebugQueues(w http.ResponseWriter, _ *http.Request) {
	resp := QueuesResponse{
		Policy:       s.policyName(),
		VirtualNowMS: msT(s.vnow()),
		Pending:      int(s.inFlight.Load()),
		Served:       int(s.accepted.Load()),
		Iterations:   s.iterations.Load(),
		TraceEnabled: s.tracer != nil,
		Replicas:     len(s.reps),
	}
	q := s.Queues()
	resp.QueueMain, resp.QueueRelegated, resp.QueueDecode = q.Main, q.Relegated, q.Decode
	resp.QueuesReported = q.Reported
	writeJSON(w, resp)
}

// maxGenerateBody bounds a POST /v1/generate body. The largest legitimate
// field is the prefix chain, at most kvcache.MaxChainBlocks hashes (about
// 70 KB), so 1 MiB leaves room to spare.
const maxGenerateBody = 1 << 20

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGenerateBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "", "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "", "malformed request body: %v", err)
		return
	}
	prio := qos.High
	switch req.Priority {
	case "", "high":
	case "low":
		prio = qos.Low
	default:
		writeError(w, http.StatusBadRequest, "priority", "unknown priority %q (want \"high\" or \"low\")", req.Priority)
		return
	}
	// Parse the prefix chain into a pooled scratch buffer: SubmitTo copies
	// the hashes it keeps, so the scratch always goes straight back to the
	// pool and a steady stream of chained submits parses garbage-free.
	sp := chainScratch.Get().(*[]uint64)
	chain, err := kvcache.ParseChainInto((*sp)[:0], req.PrefixChain)
	if err != nil {
		chainScratch.Put(sp)
		writeError(w, http.StatusBadRequest, "prefix_chain", "%v", err)
		return
	}
	var stream Stream
	err = s.SubmitTo(Submission{
		App:          req.App,
		Class:        req.Class,
		Priority:     prio,
		PromptTokens: req.PromptTokens,
		DecodeTokens: req.DecodeTokens,
		PrefixHashes: chain,
	}, &stream)
	*sp = chain[:0]
	chainScratch.Put(sp)
	if err != nil {
		var serr *SubmissionError
		switch {
		case errors.As(err, &serr):
			writeError(w, http.StatusBadRequest, serr.Field, "%s", serr.Msg)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "", "server is shutting down")
		case errors.Is(err, ErrNoHealthyReplica):
			writeError(w, http.StatusServiceUnavailable, "", "no healthy prefill replica")
		default:
			writeError(w, http.StatusInternalServerError, "", "%v", err)
		}
		return
	}

	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	cancel := r.Context().Done()
	for {
		ev, ok := stream.next(cancel)
		if !ok {
			return // client went away or the stream ended
		}
		out := TokenEvent{Event: "token", Token: ev.Token, AtMS: ms(ev.At)}
		if ev.Done {
			res := stream.Result()
			out.Event = "done"
			out.TTFTMS = ms(res.TTFT)
			out.TTLTMS = ms(res.TTLT)
			out.Violated = res.Violated
			out.Relegate = res.Releg
		}
		if err := enc.Encode(out); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ev.Done {
			return
		}
	}
}

// chainScratch pools prefix-chain parse buffers for handleGenerate.
var chainScratch = sync.Pool{New: func() any {
	s := make([]uint64, 0, 64)
	return &s
}}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	writeJSON(w, StatsResponse{
		VirtualNowMS:  ms(st.VirtualNow),
		Pending:       st.Pending,
		Served:        st.Served,
		Iterations:    st.Iterations,
		Tokens:        st.Tokens,
		ViolationRate: st.ViolationRate,
		DroppedEvents: st.DroppedEvents,
		Replicas:      st.Replicas,
	})
}

func (s *Server) handleClasses(w http.ResponseWriter, _ *http.Request) {
	type classInfo struct {
		Name   string  `json:"name"`
		Kind   string  `json:"kind"`
		TTFTMS float64 `json:"ttft_ms,omitempty"`
		TBTMS  float64 `json:"tbt_ms,omitempty"`
		TTLTMS float64 `json:"ttlt_ms,omitempty"`
	}
	out := make([]classInfo, 0, len(s.cfg.Classes))
	for _, c := range s.cfg.Classes {
		out = append(out, classInfo{
			Name:   c.Name,
			Kind:   c.Kind.String(),
			TTFTMS: ms(c.SLO.TTFT.Duration()),
			TBTMS:  ms(c.SLO.TBT.Duration()),
			TTLTMS: ms(c.SLO.TTLT.Duration()),
		})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "", "%v", err)
	}
}

// writeError emits the ErrorResponse schema with the given status. field
// may be empty when the error is not attributable to one request field.
func writeError(w http.ResponseWriter, status int, field, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...), Field: field})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msT(t sim.Time) float64 { return ms(t.Duration()) }
