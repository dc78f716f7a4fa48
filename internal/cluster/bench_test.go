package cluster

import (
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

// BenchmarkRunShared simulates a fixed 4000-request Table 3 trace on four
// QoServe replicas, the shape of perfbench's sim_mixed workload at an
// eighth of its length. B/op and allocs/op measure what one simulation
// holds and churns; each iteration replays a fresh clone of the trace,
// made with the timer (and allocation accounting) stopped.
func BenchmarkRunShared(b *testing.B) {
	mc := model.Llama3_8B_A100_TP1()
	trace := gen(b, 4000, 16, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := workload.Clone(trace)
		b.StartTimer()
		if _, err := RunShared(mc, 4, qoserveFactory, tr, sim.Forever); err != nil {
			b.Fatal(err)
		}
	}
}
