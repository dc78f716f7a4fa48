package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
)

// testTimescale is the shared test servers' virtual-time acceleration.
// Every wall-clock stall of the serving loop (a loaded CI host, the race
// detector) is multiplied by it in virtual time: at 50x a 50 ms stall
// costs 2.5 s, well inside Q1's 6 s TTFT SLO, so SLO assertions do not
// flake under load, while simulated seconds still pass in tens of
// milliseconds.
const testTimescale = 50

// only is a SchedulerFactory for a one-replica server that hands out s.
func only(s sched.Scheduler) func() sched.Scheduler {
	return func() sched.Scheduler { return s }
}

// newTestServer runs one replica at testTimescale.
func newTestServer(t *testing.T, s sched.Scheduler) *Server {
	t.Helper()
	return newFrameServer(t, s, 0)
}

// newFrameServer is newTestServer with an explicit Config.EventFrame
// (0 keeps the default).
func newFrameServer(t *testing.T, s sched.Scheduler, frame int) *Server {
	t.Helper()
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(s),
		Classes:          qos.Table3(),
		Timescale:        testTimescale,
		EventFrame:       frame,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// drain receives st to exhaustion, returning every event it delivered and
// the last one (the Done event; zero if the stream delivered nothing).
func drain(st *Stream) (evs []Event, last Event) {
	for {
		ev, ok := st.Recv()
		if !ok {
			return evs, last
		}
		evs = append(evs, ev)
		last = ev
	}
}

// serveOne submits a request and drains its stream.
func serveOne(t *testing.T, srv *Server, sub Submission) *Stream {
	t.Helper()
	st, err := srv.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	drain(st)
	return st
}

func qoserveSched() sched.Scheduler {
	mc := model.Llama3_8B_A100_TP1()
	return core.New(predictor.Oracle{Config: mc}, core.DefaultOptions())
}

func TestServerStreamsTokens(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	stream, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 500, DecodeTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := drain(stream)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, ev := range events {
		if ev.Token != i+1 {
			t.Errorf("event %d token = %d", i, ev.Token)
		}
		if i > 0 && ev.At < events[i-1].At {
			t.Error("token times not monotone")
		}
	}
	if !events[4].Done {
		t.Error("last event not marked done")
	}
	res := stream.Result()
	if res.TTFT <= 0 || res.TTLT < res.TTFT {
		t.Errorf("result = %+v", res)
	}
	if res.Violated {
		t.Error("lone request violated its SLO")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	const clients = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		class := []string{"Q1", "Q2", "Q3"}[i%3]
		go func() {
			defer wg.Done()
			stream, err := srv.Submit(Submission{Class: class, PromptTokens: 300, DecodeTokens: 4})
			if err != nil {
				errs <- err
				return
			}
			if evs, _ := drain(stream); len(evs) != 4 {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Served != clients || st.Pending != 0 || st.Tokens == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerValidation(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	cases := []Submission{
		{Class: "nope", PromptTokens: 10, DecodeTokens: 1},
		{Class: "Q1", PromptTokens: 0, DecodeTokens: 1},
		{Class: "Q1", PromptTokens: 10, DecodeTokens: 0},
		{Class: "Q1", PromptTokens: 10, DecodeTokens: 1 << 20},
	}
	for i, sub := range cases {
		if _, err := srv.Submit(sub); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}

	mc := model.Llama3_8B_A100_TP1()
	if _, err := New(Config{Model: mc, Classes: qos.Table3()}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(Config{Model: mc, SchedulerFactory: only(qoserveSched())}); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := New(Config{Model: mc, SchedulerFactory: only(qoserveSched()),
		Classes: qos.Table3(), Timescale: -1}); err == nil {
		t.Error("negative timescale accepted")
	}
}

func TestServerCloseRejectsSubmissions(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	srv.Close()
	if _, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 10, DecodeTokens: 1}); err == nil {
		t.Error("submission accepted after close")
	}
	srv.Close() // double close is safe
}

func TestHTTPGenerateStream(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(GenerateRequest{
		Class: "Q1", PromptTokens: 400, DecodeTokens: 3,
	})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var events []TokenEvent
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var ev TokenEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.TTLTMS <= 0 || last.TTFTMS <= 0 {
		t.Fatalf("final event = %+v", last)
	}
}

func TestHTTPStatsAndClasses(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Served != 0 || stats.Pending != 0 {
		t.Fatalf("fresh stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/classes")
	if err != nil {
		t.Fatal(err)
	}
	var classes []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&classes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(classes) != 3 {
		t.Fatalf("classes = %v", classes)
	}
}

func TestHTTPGenerateRejectsBadInput(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, payload := range []string{
		`{not json`,
		`{"class":"nope","prompt_tokens":10,"decode_tokens":1}`,
		`{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"priority":"vip"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
			bytes.NewReader([]byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", payload, resp.StatusCode)
		}
	}
}

// TestServerQoSOrdering checks the scheduler actually shapes real-time
// traffic: with a long batch job hogging the replica, an interactive
// request's first token must still arrive promptly under QoServe.
func TestServerQoSOrdering(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	// A huge batch-tier prompt arrives first.
	batch, err := srv.Submit(Submission{Class: "Q3", PromptTokens: 12000, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let its prefill start
	urgent, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 200, DecodeTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	drain(urgent)
	drain(batch)
	if res := urgent.Result(); res.Violated {
		t.Errorf("urgent request violated its TTFT behind a batch job: %+v", res)
	}
}

func TestServerWithSarathiScheduler(t *testing.T) {
	srv := newTestServer(t, sched.NewSarathi(sched.EDF, 256))
	stream, err := srv.Submit(Submission{Class: "Q2", PromptTokens: 600, DecodeTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if evs, _ := drain(stream); len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Serve one request so counters move.
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 200, DecodeTokens: 2})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"qoserve_requests_total 1",
		"qoserve_tokens_total",
		"qoserve_violation_ratio",
		"# TYPE qoserve_iterations_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
