package main

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"http.ack_ms_p50", "ms"},
	{"http.bytes_per_token", "B"},
	{"server.submit_us_p50", "us"},
	{"server.submit_us_p99", "us"},
	{"server.exec_overrun_share", "share"},
	{"server.tokens_per_iter", "count"},
	{"server.cpu_us_per_token", "us"},
	{"server.dropped_events", "count"},
	{"cpu_ms_per_req", "ms"},
	{"sched.plan_us_p50", "us"},
	{"sched.plan_us_p99", "us"},
	{"sched.add_us_p50", "us"},
	{"sched.prefill_tokens_per_plan", "count"},
	{"sched.relegated_share", "share"},
	{"sched.queue_main_p50", "count"},
	{"predictor.calls_per_plan", "count"},
	{"predictor.predict_ns_p50", "ns"},
	{"route.pick_us_p50", "us"},
	{"kv.hit_share", "share"},
	{"kv.transfer_share", "share"},
	{"kv.evictions", "count"},
	{"kv.transfer_fallbacks", "count"},
	{"sim.virtual_s_per_wall_s", "s/s"},
	{"sim.req_per_wall_s", "1/s"},
	{"replica.tokens_per_iter", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
}

func setLayerDefaults(res *result) {
	for _, m := range layerMetrics {
		res.set(m.name, 0, m.unit)
	}
}

// schedLayerMetrics sets the scheduler and predictor metrics from the
// wrapped schedulers' spans and counters.
func schedLayerMetrics(res *result, rec *recorder) {
	plans := float64(rec.calls(spanPlan))
	batches := rec.counter("sched.batches")
	res.set("sched.plan_us_p50", rec.durPct(spanPlan, 0.5), "us")
	res.set("sched.plan_us_p99", rec.durPct(spanPlan, 0.99), "us")
	res.set("sched.add_us_p50", rec.durPct(spanAdd, 0.5), "us")
	if batches > 0 {
		res.set("sched.prefill_tokens_per_plan", rec.counter("sched.prefill_tokens")/batches, "count")
	}
	if adds := float64(rec.calls(spanAdd)); adds > 0 {
		rec.mu.Lock()
		relegations := 0
		for _, s := range rec.scheds {
			relegations += s.Relegations()
		}
		rec.mu.Unlock()
		res.set("sched.relegated_share", float64(relegations)/adds, "share")
	}
	res.set("sched.queue_main_p50", rec.samplePct("sched.queue_main", 0.5), "count")
	if plans > 0 {
		res.set("predictor.calls_per_plan", float64(rec.calls(spanPredict))/plans, "count")
	}
	res.set("predictor.predict_ns_p50", rec.durPct(spanPredict, 0.5)*1e3, "ns")
}

// writeSpans writes the traced run's spans and notes where they went.
func writeSpans(res *result, rec *recorder, e *env) {
	path, err := rec.write(e.outDir+"/spans", e.name)
	if err != nil {
		res.note("spans not written: %v", err)
		return
	}
	for _, l := range rec.selfTimes() {
		res.note("self time %s", l)
	}
	res.note("spans written to %s", path)
}
