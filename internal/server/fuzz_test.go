package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
)

// fuzzMaxPrompt bounds the prompts FuzzGenerateRequest lets through. The
// gateway accepts any positive prompt length, and a billion-token prompt
// is a legal request that would run for virtual days; longer ones are
// skipped so every input finishes in bounded time.
const fuzzMaxPrompt = 1 << 17

// FuzzGenerateRequest posts arbitrary bodies to POST /v1/generate on one
// shared gateway. Every response must be 200, 400 or 413; every non-200
// body must decode as ErrorResponse; a 200 stream must end with its done
// event; and the gateway must drain afterwards — no input may wedge a
// serving loop or leak an in-flight request. The seeds stay small (the
// fuzzer minimizes every new input, which for a megabyte body takes
// minutes); TestGenerateBodyLimit covers the 413 path.
func FuzzGenerateRequest(f *testing.F) {
	f.Add(`{"class":"Q1","prompt_tokens":64,"decode_tokens":2}`)
	f.Add(`{"class":"Q3","priority":"low","prompt_tokens":300,"decode_tokens":1,"app":"x"}`)
	f.Add(`{"class":"Q2","prompt_tokens":40,"decode_tokens":1,"prefix_chain":"` +
		kvcache.FormatChain(kvcache.SyntheticChain(1, 0, 3)) + `"}`)
	f.Add(`{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"prefix_chain":"0x1f"}`)
	f.Add(`{"class":"Q1","prompt_tokens":10,"decode_tokens":4097}`)
	f.Add(`{"class":"Q1","prompt_tokens":-1,"decode_tokens":1}`)
	f.Add(`{"class":"gold","prompt_tokens":10,"decode_tokens":1}`)
	f.Add(`{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"priority":"vip"}`)
	f.Add(`{"class":"Q1","prompt_tokens":1e3,"decode_tokens":1}`)
	f.Add(`[1,2,3]`)
	f.Add(`{not json`)
	f.Add(``)
	f.Add(`{"class":"Q1","prompt_tokens":10,"decode_tokens":1}{"trailing":true}`)

	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         2,
		Classes:          qos.Table3(),
		Timescale:        1000,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)

	f.Fuzz(func(t *testing.T, body string) {
		var probe GenerateRequest
		if len(body) <= maxGenerateBody && json.NewDecoder(strings.NewReader(body)).Decode(&probe) == nil &&
			probe.PromptTokens > fuzzMaxPrompt {
			t.Skip("prompt too long to serve in bounded time")
		}
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			evs := readEvents(t, resp.Body)
			if len(evs) == 0 || evs[len(evs)-1].Event != "done" {
				t.Fatalf("200 stream for %q ended without done: %+v", body, evs)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Fatalf("status %d body %q is not an ErrorResponse (%v)", resp.StatusCode, raw, err)
			}
		default:
			t.Fatalf("status %d for %q", resp.StatusCode, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("drain after %q: %v", body, err)
		}
	})
}
