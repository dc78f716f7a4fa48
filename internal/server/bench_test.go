package server

import (
	"sort"
	"sync"
	"testing"
	"time"

	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// fanoutFixture builds a stopped single-replica server with a registered
// decode-phase batch, so completeLocked+ensureSpares+flushFrames — the
// steady-state serve path — can be driven directly without the serving
// loop racing. Nothing consumes the streams: their 2-frame channels fill
// after two iterations, and from then on each 4-event staged frame fills
// and drops.
func fanoutFixture(tb testing.TB) (*gatewayReplica, sched.Batch) {
	tb.Helper()
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: only(&untraceable{}),
		Classes:          qos.Table3(),
		StreamBuffer:     8,
		EventFrame:       4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Close() // stop the loop; the replica state stays usable
	rp := srv.reps[0]
	cls := qos.Table3()[0]
	var batch sched.Batch
	for i := uint64(1); i <= 8; i++ {
		r := &request.Request{
			ID:           i,
			App:          "bench",
			Class:        cls,
			PromptTokens: 64,
			// Effectively infinite decode so the requests never reach Done
			// and the fixture stays in pure steady state.
			DecodeTokens:    1 << 30,
			PrefilledTokens: 64,
			DecodedTokens:   1,
			FirstTokenAt:    sim.Millisecond,
			LastTokenAt:     sim.Millisecond,
		}
		e := srv.newEntry()
		e.id, e.req, e.staged = r.ID, r, srv.newFrame()
		rp.streams[r.ID] = e
		batch.Decodes = append(batch.Decodes, r)
	}
	return rp, batch
}

// fanoutStep runs one iteration of the fixture's serve path.
func fanoutStep(rp *gatewayReplica, batch sched.Batch, exec, end sim.Time) {
	rp.mu.Lock()
	rp.completeLocked(batch, exec, end)
	rp.mu.Unlock()
	rp.ensureSpares()
	rp.flushFrames()
}

// TestServeSteadyStateAllocFree guards the live serving path the same way
// TestPlanBatchSteadyStateAllocFree guards the simulator: per-iteration
// accounting, histogram update, event staging, and frame fan-out
// (including the overflow-drop path once the frame channels and staged
// frames fill) must allocate nothing.
func TestServeSteadyStateAllocFree(t *testing.T) {
	rp, batch := fanoutFixture(t)
	exec := 5 * sim.Millisecond
	end := sim.Second
	step := func() {
		end += exec
		fanoutStep(rp, batch, exec, end)
	}
	// Warm the histogram and fill the frame channels (the sends before
	// they fill take spare frames, which ensureSpares replaces) before
	// measuring.
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state serve path allocates %.1f times per iteration, want 0", allocs)
	}
	if rp.srv.droppedEvents.Load() == 0 {
		t.Fatal("fixture never exercised the overflow-drop path")
	}
}

// BenchmarkTokenFanout measures one iteration of the serve path:
// accounting + event staging under the scheduler lock, then frame fan-out
// to 8 streams.
func BenchmarkTokenFanout(b *testing.B) {
	rp, batch := fanoutFixture(b)
	exec := 5 * sim.Millisecond
	end := sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += exec
		fanoutStep(rp, batch, exec, end)
	}
}

// benchGatewayTokenPath is the token-path benchmark `make bench-gate`
// diffs against BENCH_GATE.txt: many parallel submitters drive
// closed-loop prefill-heavy requests end to end (submit, stream, drain)
// against N serving replicas, whose iterations sleep their
// (timescale-compressed) execution time like a model server's, so req/s
// measures how much concurrent "GPU time" the gateway keeps in flight.
// Requests go through the pooled SubmitTo entry point with per-goroutine
// Stream reuse, drained via Recv, and the run reports allocs/op plus TTFT
// quantiles. The request, stream entry, and frames all recycle
// through free lists, so a warm run allocates nothing per request.
func benchGatewayTokenPath(b *testing.B, replicas int) {
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
		Replicas:         replicas,
		Classes:          qos.Table3(),
		Timescale:        200,
		StreamBuffer:     8,
		EventFrame:       16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Pre-sized so appending TTFT samples never allocates mid-run.
	ttfts := make([]float64, 0, b.N+64)
	var mu sync.Mutex
	b.SetParallelism(32) // 32 concurrent submitters per GOMAXPROCS
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var stream Stream
		for pb.Next() {
			err := srv.SubmitTo(Submission{Class: "Q2", PromptTokens: 512, DecodeTokens: 2}, &stream)
			if err != nil {
				b.Error(err)
				return
			}
			for {
				if _, ok := stream.Recv(); !ok {
					break
				}
			}
			ttft := float64(stream.Result().TTFT) / float64(time.Millisecond)
			mu.Lock()
			ttfts = append(ttfts, ttft)
			mu.Unlock()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	sort.Float64s(ttfts)
	b.ReportMetric(benchQuantile(ttfts, 0.50), "ttft_p50_ms")
	b.ReportMetric(benchQuantile(ttfts, 0.90), "ttft_p90_ms")
}

// benchQuantile is nearest-rank over an already-sorted sample.
func benchQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func BenchmarkGatewayFrameReplicas8(b *testing.B) { benchGatewayTokenPath(b, 8) }
