package server

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// TestLedgerBoundedAcrossWindows serves requests one at a time across many
// metrics windows and checks the finished-outcome ledger against a full,
// unpruned copy of every outcome: the retained storage stays bounded by
// the window's traffic, and /metrics renders byte-identically from the
// pruned ledger and from the full copy.
func TestLedgerBoundedAcrossWindows(t *testing.T) {
	// A class no request can meet, so the lifetime violation ratio and the
	// rolling per-class ratios are not trivially zero.
	classes := append(qos.Table3(), qos.Class{Name: "tight", Kind: qos.Interactive,
		SLO: qos.SLO{TTFT: sim.Microsecond, TBT: sim.Millisecond}})
	const window = 2 * time.Second // virtual
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(newOneShot()),
		Classes:          classes,
		Timescale:        100,
		MetricsWindow:    window,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// render writes /metrics from the live ledger and from the full copy at
	// the same instant; the gateway is idle, so every other series agrees.
	render := func(all []metrics.Outcome) (pruned, full string) {
		t.Helper()
		vnow := srv.vnow()
		var got, want bytes.Buffer
		srv.writeMetrics(&got, vnow, srv.outcomes(vnow))
		sum := &metrics.Summary{Outcomes: all, End: vnow, Replicas: 1}
		ref := outcomeView{
			lifetime: make(map[string]metrics.Tally, len(classes)),
			recent:   sum.Recent(sim.FromDuration(window)),
		}
		for _, c := range classes {
			ref.lifetime[c.Name] = sum.Tally(metrics.ByClass(c.Name))
		}
		srv.writeMetrics(&want, vnow, ref)
		return got.String(), want.String()
	}

	const n = 400
	var all []metrics.Outcome
	var st Stream
	for i := 0; i < n; i++ {
		sub := Submission{Class: classes[i%len(classes)].Name, PromptTokens: 16 + 64*(i%5), DecodeTokens: 1}
		if err := srv.SubmitTo(sub, &st); err != nil {
			t.Fatal(err)
		}
		drain(&st)
		// The outcome is recorded before the final frame ships, and requests
		// run one at a time, so it is the ledger's newest entry.
		srv.finMu.Lock()
		o := srv.ledger.recent[len(srv.ledger.recent)-1]
		srv.finMu.Unlock()
		if o.ID != st.ID {
			t.Fatalf("newest ledger outcome is request %d, want %d", o.ID, st.ID)
		}
		all = append(all, o)
		if (i+1)%100 == 0 {
			if pruned, full := render(all); pruned != full {
				t.Fatalf("after %d requests /metrics differs between the pruned ledger and the full copy:\n--- pruned\n%s\n--- full\n%s", i+1, pruned, full)
			}
		}
	}

	w := sim.FromDuration(window)
	if span := all[n-1].Arrival - all[0].Arrival; span < 5*w {
		t.Fatalf("requests span %v of virtual time, want at least 5 windows of %v", span.Duration(), window)
	}
	// The most outcomes any one window held, from the full copy.
	maxIn, first := 0, 0
	for i, o := range all {
		for all[first].Arrival <= o.Arrival-w {
			first++
		}
		maxIn = max(maxIn, i-first+1)
	}
	srv.finMu.Lock()
	kept, capacity := len(srv.ledger.recent), cap(srv.ledger.recent)
	srv.finMu.Unlock()
	t.Logf("%d requests over %d windows: ledger keeps %d in capacity %d, at most %d per window",
		n, int((all[n-1].Arrival-all[0].Arrival)/w), kept, capacity, maxIn)
	if bound := max(ledgerMinCap, 4*maxIn); capacity > bound || kept > capacity {
		t.Fatalf("ledger keeps %d outcomes in capacity %d after %d requests; want capacity <= %d (at most %d per window)",
			kept, capacity, n, bound, maxIn)
	}
	if capacity >= n {
		t.Fatalf("ledger capacity %d never pruned below the %d requests served", capacity, n)
	}
}

// TestLedgerConcurrentScrapes serves from several replicas while another
// goroutine scrapes /metrics, with a window short enough that the ledger
// prunes mid-run: every request must land in the lifetime tallies exactly
// once.
func TestLedgerConcurrentScrapes(t *testing.T) {
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return newOneShot() },
		Replicas:         4,
		Classes:          qos.Table3(),
		Timescale:        100,
		MetricsWindow:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop, scrapes := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
			n++
		}
	}()
	const clients, each = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st Stream
			for i := 0; i < each; i++ {
				if err := srv.SubmitTo(Submission{Class: "Q2", PromptTokens: 32, DecodeTokens: 1}, &st); err != nil {
					t.Error(err)
					return
				}
				drain(&st)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape overlapped the serving")
	}
	if tally := srv.outcomes(srv.vnow()).total(); tally.Requests != clients*each || tally.Judged != clients*each {
		t.Fatalf("outcome tally = %+v, want %d requests, all judged", tally, clients*each)
	}
	srv.finMu.Lock()
	kept := len(srv.ledger.recent)
	srv.finMu.Unlock()
	if kept >= clients*each {
		t.Fatalf("ledger kept all %d outcomes; it never pruned", kept)
	}
}
