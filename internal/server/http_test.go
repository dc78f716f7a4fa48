package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// newTracedServer is newTestServer with the iteration tracer on.
func newTracedServer(t *testing.T, s sched.Scheduler, depth int) *Server {
	t.Helper()
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(s),
		Classes:          qos.Table3(),
		Timescale:        testTimescale,
		TraceDepth:       depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// promLine matches one Prometheus text sample: name{labels} value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]Inf)$`)

// TestMetricsPrometheusFormat validates the whole /metrics payload line by
// line against the text exposition format: every sample parses, every metric
// family is announced by a HELP/TYPE pair before its first sample, and the
// families the operations guide documents are all present.
func TestMetricsPrometheusFormat(t *testing.T) {
	srv := newTracedServer(t, qoserveSched(), 128)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 300, DecodeTokens: 3})
	serveOne(t, srv, Submission{Class: "Q3", PromptTokens: 500, DecodeTokens: 2})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	announced := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			announced[strings.Fields(line)[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		// Histogram sample suffixes belong to the base family.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !announced[name] && !announced[base] {
			t.Errorf("sample %q has no HELP/TYPE header", name)
		}
	}

	text := string(body)
	for _, want := range []string{
		"qoserve_requests_total 2",
		"qoserve_requests_pending 0",
		"qoserve_iterations_total",
		"qoserve_prefill_tokens_total",
		"qoserve_decode_tokens_total",
		"qoserve_relegations_total",
		`qoserve_queue_depth{queue="main"}`,
		`qoserve_queue_depth{queue="relegated"}`,
		`qoserve_queue_depth{queue="decode"}`,
		"qoserve_trace_iterations_total",
		"qoserve_trace_events_total",
		`qoserve_iteration_virtual_seconds_bucket{le="+Inf"}`,
		"qoserve_iteration_virtual_seconds_sum",
		"qoserve_iteration_virtual_seconds_count",
		`qoserve_class_ttft_seconds{class="Q1",quantile="0.5"}`,
		`qoserve_class_ttft_seconds{class="Q2",quantile="0.99"}`,
		`qoserve_class_ttlt_seconds{class="Q3",quantile="0.5"}`,
		`qoserve_class_max_tbt_seconds{class="Q1",quantile="0.99"}`,
		`qoserve_class_violation_ratio{class="Q1"}`,
		`qoserve_class_requests_total{class="Q1"} 1`,
		`qoserve_class_requests_total{class="Q2"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Q2 saw no traffic: its rolling quantiles must be NaN, not fabricated.
	if !strings.Contains(text, `qoserve_class_ttft_seconds{class="Q2",quantile="0.5"} NaN`) {
		t.Error("idle class quantile not NaN")
	}
}

func TestDebugTraceReturnsRecentIterationsInOrder(t *testing.T) {
	srv := newTracedServer(t, qoserveSched(), 256)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 600, DecodeTokens: 4})

	var tr TraceResponse
	getJSONBody(t, ts.URL+"/debug/trace", &tr)
	if !tr.Enabled || tr.Capacity != 256 {
		t.Fatalf("trace meta = %+v", tr)
	}
	if tr.Total == 0 || len(tr.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	for i, it := range tr.Iterations {
		if i > 0 && it.Seq != tr.Iterations[i-1].Seq+1 {
			t.Fatalf("iteration seq not ascending: %d after %d", it.Seq, tr.Iterations[i-1].Seq)
		}
		if it.Policy != "QoServe" {
			t.Errorf("policy = %q", it.Policy)
		}
		if it.CompletedAtMS < it.PlannedAtMS || it.ActualMS <= 0 {
			t.Errorf("iteration %d timing: planned %v completed %v actual %v",
				it.Seq, it.PlannedAtMS, it.CompletedAtMS, it.ActualMS)
		}
	}
	last := tr.Iterations[len(tr.Iterations)-1]
	if last.Seq != tr.Total {
		t.Errorf("last seq = %d, total = %d", last.Seq, tr.Total)
	}
	// QoServe plans with its predictor: prefill iterations carry a
	// prediction, and the batch composition must account for the prompt.
	tokens, predicted := 0, false
	events := 0
	for _, it := range tr.Iterations {
		tokens += it.ChunkTokens
		if it.PredictedMS > 0 {
			predicted = true
		}
		events += len(it.Events)
	}
	if tokens != 600 {
		t.Errorf("traced prefill tokens = %d, want 600", tokens)
	}
	if !predicted {
		t.Error("no iteration carried a latency prediction")
	}
	if events == 0 {
		t.Error("admission event not traced")
	}

	// n bounds the response.
	var bounded TraceResponse
	getJSONBody(t, ts.URL+"/debug/trace?n=2", &bounded)
	if len(bounded.Iterations) != 2 {
		t.Fatalf("n=2 returned %d iterations", len(bounded.Iterations))
	}
	if bounded.Iterations[1].Seq != tr.Total {
		t.Errorf("bounded snapshot does not end at the newest iteration")
	}

	// Malformed n is a structured 400.
	resp, err := http.Get(ts.URL + "/debug/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Field != "n" || er.Error == "" {
		t.Errorf("error body = %+v", er)
	}
}

func TestDebugTraceDisabledByDefault(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var tr TraceResponse
	getJSONBody(t, ts.URL+"/debug/trace", &tr)
	if tr.Enabled || tr.Total != 0 || len(tr.Iterations) != 0 {
		t.Fatalf("default server traced: %+v", tr)
	}
}

func TestDebugQueues(t *testing.T) {
	srv := newTracedServer(t, qoserveSched(), 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	serveOne(t, srv, Submission{Class: "Q2", PromptTokens: 200, DecodeTokens: 2})

	var q QueuesResponse
	getJSONBody(t, ts.URL+"/debug/queues", &q)
	if q.Policy != "QoServe" || !q.QueuesReported || !q.TraceEnabled {
		t.Fatalf("queues = %+v", q)
	}
	if q.Served != 1 || q.Pending != 0 || q.Iterations == 0 {
		t.Errorf("counters = %+v", q)
	}
	if q.QueueMain != 0 || q.QueueRelegated != 0 || q.QueueDecode != 0 {
		t.Errorf("drained server reports queue depths %d/%d/%d",
			q.QueueMain, q.QueueRelegated, q.QueueDecode)
	}
}

func TestClientFetchesDebugEndpoints(t *testing.T) {
	srv := newTracedServer(t, qoserveSched(), 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 250, DecodeTokens: 2})

	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr, err := c.FetchTrace(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled || len(tr.Iterations) == 0 || len(tr.Iterations) > 5 {
		t.Fatalf("trace = %+v", tr)
	}
	q, err := c.FetchQueues(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if q.Served != 1 {
		t.Fatalf("queues = %+v", q)
	}
}

// TestGenerateErrorSchema checks every rejection path emits the documented
// {"error": ..., "field": ...} JSON with the right status code.
func TestGenerateErrorSchema(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		payload string
		status  int
		field   string
	}{
		{"malformed body", `{not json`, http.StatusBadRequest, ""},
		{"unknown class", `{"class":"nope","prompt_tokens":10,"decode_tokens":1}`, http.StatusBadRequest, "class"},
		{"bad priority", `{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"priority":"vip"}`, http.StatusBadRequest, "priority"},
		{"zero prompt", `{"class":"Q1","prompt_tokens":0,"decode_tokens":1}`, http.StatusBadRequest, "prompt_tokens"},
		{"zero decode", `{"class":"Q1","prompt_tokens":10,"decode_tokens":0}`, http.StatusBadRequest, "decode_tokens"},
		{"prompt beyond the KV cache", `{"class":"Q1","prompt_tokens":1000000,"decode_tokens":1}`, http.StatusBadRequest, "prompt_tokens"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
				strings.NewReader(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type = %q", ct)
			}
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
			if er.Field != tc.field {
				t.Errorf("field = %q, want %q", er.Field, tc.field)
			}
		})
	}
}

// TestGenerateBodyLimit caps the generate body at maxGenerateBody: an
// oversized body gets 413 in the error schema, while a large legal one — a
// long prefix chain — still streams.
func TestGenerateBodyLimit(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := `{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"prefix_chain":"` +
		strings.Repeat("a", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status = %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" || er.Field != "" {
		t.Errorf("413 body = %+v", er)
	}

	// The longest chain the parser accepts, ~70 KB on the wire.
	chain := kvcache.FormatChain(kvcache.SyntheticChain(9, 0, kvcache.MaxChainBlocks))
	body, _ := json.Marshal(GenerateRequest{Class: "Q1", PromptTokens: 2048, DecodeTokens: 3, PrefixChain: chain})
	if len(body) < 64<<10 || len(body) > maxGenerateBody {
		t.Fatalf("legal body is %d bytes, want 64 KiB..1 MiB", len(body))
	}
	ok, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("large legal body: status = %d, want 200", ok.StatusCode)
	}
	if evs := readEvents(t, ok.Body); len(evs) != 3 || evs[2].Event != "done" {
		t.Fatalf("large legal body streamed %+v, want 3 events ending in done", evs)
	}
}

// readEvents decodes a generate response stream to its end.
func readEvents(t testing.TB, r io.Reader) []TokenEvent {
	t.Helper()
	var evs []TokenEvent
	dec := json.NewDecoder(r)
	for {
		var ev TokenEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return evs
		} else if err != nil {
			t.Fatalf("bad event after %d: %v", len(evs), err)
		}
		evs = append(evs, ev)
	}
}

func TestGenerateAfterCloseIs503(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()

	resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"class":"Q1","prompt_tokens":10,"decode_tokens":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" {
		t.Error("empty error message")
	}
}

// untraceable is a minimal scheduler without the Traceable capability, to
// prove Config.TraceDepth on an unsupported policy is a configuration error.
type untraceable struct{ pending int }

func (u *untraceable) Name() string                          { return "untraceable" }
func (u *untraceable) Add(*request.Request, sim.Time)        { u.pending++ }
func (u *untraceable) PlanBatch(sim.Time) sched.Batch        { return sched.Batch{} }
func (u *untraceable) OnBatchComplete(sched.Batch, sim.Time) {}
func (u *untraceable) Pending() int                          { return u.pending }

func TestTraceDepthRequiresTraceableScheduler(t *testing.T) {
	_, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(&untraceable{}),
		Classes:          qos.Table3(),
		TraceDepth:       16,
	})
	if err == nil {
		t.Fatal("untraceable scheduler accepted with TraceDepth set")
	}
	if _, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(qoserveSched()),
		Classes:          qos.Table3(),
		TraceDepth:       -1,
	}); err == nil {
		t.Fatal("negative TraceDepth accepted")
	}
}

func getJSONBody(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
