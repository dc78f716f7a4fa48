package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoserve/internal/qos"
	"qoserve/internal/server"
)

// stream_http drives the shipped qoserved binary, default flags and two
// replicas, over real HTTP with a closed loop of two connections sending
// decode-heavy Q1 requests. Two clients on two replicas build no queue, so
// TTFT is prefill plus overhead and the per-token delivery path (JSON
// encode, flush, frames) is most of the work.
const (
	httpReplicas  = 2
	httpClients   = 2
	httpTimescale = 3 // a 24 ms decode step sleeps 8 ms, far above the sleep overshoot
	httpMinPrompt = 64
	httpMaxPrompt = 256
	httpMinDecode = 100
	httpMaxDecode = 140
)

// httpTails: a closed loop of two clients completes about 38 requests a
// run, enough first tokens for a p60 with ten beyond it, not for a p99.
// Its token gaps measure the machine as much as the program: while the
// shared host is busy, every sleep wakes late, and at -timescale 6 one
// seed's p95 gap read 28 ms on a quiet host and 48 ms on a busy one (p80:
// 27 and 32 ms). A timescale of 3 halves that in virtual time, and p90 is
// the highest percentile that stays within the bound.
var httpTails = tails{ttft: 0.6, tbt: 0.9}

// daemon is one running qoserved child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited, which exited reports
	<-d.exited
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon spawns qoserved and waits until it answers, returning the
// time from spawn until the first request was accepted.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no qoserved binary given (-qoserved)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://" + addr, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-replicas", strconv.Itoa(httpReplicas),
		"-timescale", strconv.Itoa(httpTimescale))
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	d.cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = d.cmd.Wait() // a daemon that dies early is caught below via exited
		close(d.exited)
	}()
	c := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("qoserved exited during start-up: %s", d.stderr.String())
		default:
		}
		if resp, err := c.Get(d.base + "/v1/classes"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("qoserved did not answer within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// promSnapshot is the subset of GET /metrics the benchmark reads.
type promSnapshot map[string]float64

func fetchMetrics(c *http.Client, base string) (promSnapshot, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// fetchTrace reads the iteration ring, keyed by sequence number.
func fetchTrace(c *http.Client, base string, into map[uint64]server.TracedIteration) error {
	resp, err := c.Get(base + "/debug/trace?n=100000")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr server.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return err
	}
	for _, it := range tr.Iterations {
		into[it.Seq] = it
	}
	return nil
}

// httpReq is one generated request of the closed loop.
type httpReq struct{ prompt, decode int }

func httpRequests(seed int64, n int) []httpReq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]httpReq, n)
	for i := range out {
		out[i] = httpReq{
			prompt: httpMinPrompt + rng.Intn(httpMaxPrompt-httpMinPrompt+1),
			decode: httpMinDecode + rng.Intn(httpMaxDecode-httpMinDecode+1),
		}
	}
	return out
}

// httpPass is one measured pass against one daemon.
type httpPass struct {
	recs       []*reqRec
	bytes      int64
	ack        []float64 // wall ms, request write to response headers
	wall       time.Duration
	cpu        time.Duration
	before     promSnapshot
	after      promSnapshot
	iterations map[uint64]server.TracedIteration // traced pass only
	rssMB      float64
}

// runHTTPPass measures one pass of e.seconds against d. With rec set it
// also records client spans and collects the daemon's iteration trace.
func runHTTPPass(e *env, d *daemon, reqs []httpReq, rec *recorder) (*httpPass, error) {
	tr := &http.Transport{MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	mc := &http.Client{Timeout: 5 * time.Second} // observability reads, own connection
	pass := &httpPass{}
	var err error
	if pass.before, err = fetchMetrics(mc, d.base); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	q1 := qos.Table3()[0]
	origin := time.Now()
	deadline := time.Duration(e.seconds * float64(time.Second))

	// The traced pass polls the iteration ring often enough that it never
	// wraps between reads.
	stopPoll := make(chan struct{})
	pollDone := make(chan error, 1)
	if rec != nil {
		pass.iterations = map[uint64]server.TracedIteration{}
		go func() {
			t := time.NewTicker(200 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopPoll:
					pollDone <- fetchTrace(mc, d.base, pass.iterations)
					return
				case <-t.C:
					if err := fetchTrace(mc, d.base, pass.iterations); err != nil {
						pollDone <- err
						return
					}
				}
			}
		}()
	} else {
		close(pollDone)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, httpClients)
	for ci := 0; ci < httpClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var prevDone time.Duration
			for i := ci; i < len(reqs); i += httpClients {
				now := time.Since(origin)
				if now >= deadline {
					return
				}
				due := now
				if i >= httpClients {
					due = prevDone
				}
				r := &reqRec{class: q1, due: due, want: reqs[i].decode}
				if rec != nil {
					r.times = make([]time.Duration, 0, r.want)
				}
				mu.Lock()
				pass.recs = append(pass.recs, r)
				mu.Unlock()
				n, ackMS, err := httpGenerate(c, d.base, reqs[i], r, origin, &mu)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				pass.bytes += n
				pass.ack = append(pass.ack, ackMS)
				prevDone = r.last
				mu.Unlock()
				if rec != nil {
					clientSpans(rec, uint64(i+1), r)
				}
			}
		}(ci)
	}
	wg.Wait()
	pass.wall = time.Since(origin)
	close(stopPoll)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if err := <-pollDone; err != nil {
		return nil, fmt.Errorf("reading /debug/trace: %w", err)
	}
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	pass.cpu = cpu1 - cpu0
	if pass.after, err = fetchMetrics(mc, d.base); err != nil {
		return nil, err
	}
	if pass.rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	return pass, nil
}

// httpGenerate sends one request and consumes its token stream into r,
// returning the response bytes and the wall ms until response headers.
// Protocol failures land in r; only transport errors are returned.
func httpGenerate(c *http.Client, base string, q httpReq, r *reqRec, origin time.Time, mu *sync.Mutex) (int64, float64, error) {
	body, err := json.Marshal(server.GenerateRequest{Class: "Q1", PromptTokens: q.prompt, DecodeTokens: q.decode})
	if err != nil {
		return 0, 0, err
	}
	mu.Lock()
	r.sent = time.Since(origin)
	mu.Unlock()
	resp, err := c.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	ack := time.Since(origin)
	mu.Lock()
	r.ack = ack
	ackMS := float64(ack-r.sent) / float64(time.Millisecond)
	mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) // best effort: only quoted in the failure
		mu.Lock()
		r.fail("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		mu.Unlock()
		return int64(len(b)), ackMS, nil
	}
	br := bufio.NewReader(resp.Body)
	var n int64
	for {
		line, err := br.ReadSlice('\n')
		n += int64(len(line))
		if len(line) > 0 {
			at := time.Since(origin)
			var ev server.TokenEvent
			mu.Lock()
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				r.fail("bad event %q: %v", line, jerr)
			} else {
				r.token(ev.Token, ev.Event == "done", at)
				if ev.Event == "done" {
					r.serverTTFT = time.Duration(ev.TTFTMS * float64(time.Millisecond))
				}
			}
			mu.Unlock()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, ackMS, err
		}
	}
	mu.Lock()
	if !r.done {
		r.fail("stream ended after %d of %d tokens without done", r.got, r.want)
	}
	mu.Unlock()
	return n, ackMS, nil
}

// checkHTTPPass applies the correctness checks to one pass.
func checkHTTPPass(res *result, p *httpPass, st phaseStats) {
	res.check(st.accounted(), "sent %d != completed %d + failed %d + unfinished %d", st.sent, st.completed, st.failed, st.unfinished)
	res.check(st.unfinished == 0, "%d requests unfinished in a closed loop", st.unfinished)
	accepted := p.after["qoserve_requests_total"] - p.before["qoserve_requests_total"]
	res.check(int(accepted) == st.sent, "daemon accepted %v requests, clients sent %d", accepted, st.sent)
	dropped := p.after["qoserve_stream_dropped_events_total"] - p.before["qoserve_stream_dropped_events_total"]
	res.check(dropped == 0, "daemon dropped %v stream events", dropped)
	for _, r := range p.recs {
		if r.err != "" {
			res.check(false, "request failed: %s", r.err)
			continue
		}
		// The daemon times from its own accept, after the client sent.
		client := virtualMS(r.first-r.sent, httpTimescale)
		server := float64(r.serverTTFT) / float64(time.Millisecond)
		res.check(server <= client+1e-6, "server TTFT %.3fms above client-observed %.3fms", server, client)
	}
}

func runStreamHTTP(e *env) (*result, error) {
	res := newResult()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRounds; i++ {
		// Each daemon is stopped before the next starts, so set-ups do not
		// compete with an idle predecessor.
		if d != nil {
			d.stop()
		}
		var setup time.Duration
		var err error
		if d, setup, err = startDaemon(e.qoserved); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer func() { d.stop() }()

	reqs := httpRequests(e.seed, 100000)
	pass, err := runHTTPPass(e, d, reqs, nil)
	if err != nil {
		return nil, err
	}
	ph := &phase{timescale: httpTimescale, window: pass.wall, reqs: pass.recs}
	st := ph.stats()
	checkHTTPPass(res, pass, st)
	res.attempted, res.failed = st.sent, st.failed
	lateP99 := percentile(st.late, 0.99)
	res.check(lateP99 < lateLimitMS, "load generator p99 lateness %.2fms over %vms", lateP99, lateLimitMS)

	if !e.traced {
		latencyMetrics(res, st, httpTails)
		res.set("setup_s", median(setups), "s")
		res.set("slo_attain_share", st.attainment(), "share")
		res.set("goodput_rps", ph.goodput(st), "1/s")
		res.set("req_per_s", float64(st.completed)/pass.wall.Seconds(), "1/s")
		res.set("tok_per_s", float64(st.tokens)/pass.wall.Seconds(), "1/s")
		res.set("rss_peak_mb", pass.rssMB, "MiB")
		return res, nil
	}

	// Traced pass on a fresh daemon, so both passes start from the same
	// state.
	d.stop() // stopping twice, as the deferred stop may, is harmless
	fresh, _, err := startDaemon(e.qoserved)
	if err != nil {
		return nil, err
	}
	d = fresh
	rec := newRecorder()
	tp, err := runHTTPPass(e, d, reqs, rec)
	if err != nil {
		return nil, err
	}
	tst := (&phase{timescale: httpTimescale, window: tp.wall, reqs: tp.recs}).stats()
	checkHTTPPass(res, tp, tst)
	res.attempted += tst.sent
	res.failed += tst.failed

	setLayerDefaults(res)
	delta := func(name string) float64 { return tp.after[name] - tp.before[name] }
	iters := delta("qoserve_iterations_total")
	res.set("http.ack_ms_p50", percentile(tp.ack, 0.5), "ms")
	res.set("http.bytes_per_token", float64(tp.bytes)/float64(tst.tokens), "B")
	res.set("server.tokens_per_iter", delta("qoserve_tokens_total")/iters, "count")
	res.set("server.cpu_us_per_token", float64(tp.cpu)/float64(time.Microsecond)/delta("qoserve_decode_tokens_total"), "us")
	res.set("server.dropped_events", delta("qoserve_stream_dropped_events_total"), "count")
	res.set("loadgen.late_ms_p99", percentile(tst.late, 0.99), "ms")
	overrun := execOverrun(res, tp, delta("qoserve_iteration_virtual_seconds_sum"), delta("qoserve_iteration_virtual_seconds_count"))
	res.set("server.exec_overrun_share", overrun, "share")
	res.check(overrun < overrunLimit, "iterations overran modeled execution by %.1f%% (limit %.0f%%)", overrun*100, overrunLimit*100)
	perReq := func(p *httpPass, sent int) float64 { return float64(p.cpu) / float64(sent) }
	res.set("trace.overhead_share", perReq(tp, tst.sent)/perReq(pass, st.sent)-1, "share")
	res.set("cpu_ms_per_req", perReq(pass, st.sent)/float64(time.Millisecond), "ms")
	writeSpans(res, rec, e)
	return res, nil
}

// execOverrun is the share of iteration time (virtual, plan to completion)
// not covered by modeled execution: the modeled seconds come from the
// daemon's iteration histogram, the durations from its iteration trace.
func execOverrun(res *result, p *httpPass, modeledSum, count float64) float64 {
	firstSeq := uint64(p.before["qoserve_iterations_total"])
	var actual float64
	n := 0
	for seq, it := range p.iterations {
		if seq > firstSeq && seq <= firstSeq+uint64(count) {
			actual += it.ActualMS / 1e3
			n++
		}
	}
	if n == 0 || count == 0 {
		res.check(false, "no traced iterations to compare against modeled execution")
		return 0
	}
	if float64(n) != count {
		res.note("trace ring covered %d of %v iterations; comparing means", n, count)
	}
	return 1 - (modeledSum/count)/(actual/float64(n))
}
