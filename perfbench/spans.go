package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layer names of the spans the traced run records.
const (
	spanSubmit   = "server.submit"  // Server.SubmitTo
	spanRoute    = "route.pick"     // balancer pick (child of submit)
	spanAdd      = "sched.add"      // Scheduler.Add
	spanPlan     = "sched.plan"     // Scheduler.PlanBatch
	spanComplete = "sched.complete" // Scheduler.OnBatchComplete
	spanPredict  = "predictor.call" // predictor call (child of plan or add)
	spanAck      = "client.ack"     // submit -> accepted (HTTP: headers)
	spanFirst    = "client.first"   // accepted -> first token
	spanToken    = "client.token"   // previous token -> this token
	spanDone     = "client.done"    // first token -> done
	spanSim      = "sim.run"        // cluster.RunShared
	maxSpans     = 1 << 17          // spans kept in memory for the span file
	reservoirCap = 1 << 15          // durations kept per layer for percentiles
)

// span is one timed call. Times are nanoseconds since the recorder's
// origin; parent is 0 for a root span. Spans of one request share req.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64
}

// layerAgg accumulates every call of one layer: count, total and child
// time (so self time = total - child), and a uniform reservoir sample of
// durations for percentiles.
type layerAgg struct {
	calls        int
	total, child time.Duration
	sample       []float64 // durations in µs
	rng          *rand.Rand
}

func (a *layerAgg) observe(d time.Duration) {
	a.calls++
	a.total += d
	us := float64(d) / float64(time.Microsecond)
	if len(a.sample) < reservoirCap {
		a.sample = append(a.sample, us)
		return
	}
	if j := a.rng.Intn(a.calls); j < reservoirCap {
		a.sample[j] = us
	}
}

// recorder keeps the traced run's spans and per-layer aggregates in
// memory; write dumps them when the run ends. Safe for concurrent use.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	nextID uint64               // guarded by mu
	spans  []span               // guarded by mu
	layers map[string]*layerAgg // guarded by mu
	// counters are per-layer counts recorded at the same boundaries.
	counters map[string]float64 // guarded by mu
	// samples are per-call observations other than durations (queue
	// depths at each plan).
	samples map[string][]float64 // guarded by mu
	// scheds are the wrapped schedulers, whose relegation counts are
	// summed once serving has stopped.
	scheds []relegationCounter // guarded by mu
}

func newRecorder() *recorder {
	return &recorder{
		origin:   time.Now(),
		spans:    make([]span, 0, 1024),
		layers:   map[string]*layerAgg{},
		counters: map[string]float64{},
		samples:  map[string][]float64{},
	}
}

// begin opens a span and returns its id and start time.
func (r *recorder) begin() (uint64, time.Time) {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id, time.Now()
}

// end closes span id of layer name that started at start, charging its
// duration to the parent's child time when parentLayer is set.
func (r *recorder) end(id, parent, req uint64, name, parentLayer string, start time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(start)
	r.mu.Lock()
	r.layer(name).observe(d)
	if parentLayer != "" {
		r.layer(parentLayer).child += d
	}
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{id: id, parent: parent, req: req, name: name,
			start: start.Sub(r.origin).Nanoseconds(), end: now.Sub(r.origin).Nanoseconds()})
	}
	r.mu.Unlock()
	return d
}

// point records an already-timed client span (times from the client's
// own clock, as offsets from origin).
func (r *recorder) point(req uint64, name string, from, to time.Duration) {
	r.mu.Lock()
	r.nextID++
	r.layer(name).observe(to - from)
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{id: r.nextID, req: req, name: name, start: from.Nanoseconds(), end: to.Nanoseconds()})
	}
	r.mu.Unlock()
}

func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	if s := r.samples[name]; len(s) < reservoirCap*4 {
		r.samples[name] = append(s, v)
	}
	r.mu.Unlock()
}

//qoserve:locked mu
func (r *recorder) layer(name string) *layerAgg {
	a := r.layers[name]
	if a == nil {
		a = &layerAgg{rng: rand.New(rand.NewSource(int64(len(r.layers) + 1)))}
		r.layers[name] = a
	}
	return a
}

// durPct is the q-th percentile duration of layer name in µs (0 if the
// layer never ran).
func (r *recorder) durPct(name string, q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.layers[name]
	if a == nil || len(a.sample) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), a.sample...), q)
}

func (r *recorder) calls(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.layers[name]; a != nil {
		return a.calls
	}
	return 0
}

func (r *recorder) counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

func (r *recorder) samplePct(name string, q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.samples[name]
	if len(s) == 0 {
		return 0
	}
	return percentile(append([]float64(nil), s...), q)
}

// selfTimes lists each layer's calls, total and self time, slowest first.
func (r *recorder) selfTimes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := r.layers[names[i]], r.layers[names[j]]
		return a.total-a.child > b.total-b.child
	})
	out := make([]string, 0, len(names))
	for _, n := range names {
		a := r.layers[n]
		out = append(out, fmt.Sprintf("%-15s calls=%-8d total=%-12v self=%v", n, a.calls, a.total.Round(time.Microsecond), (a.total-a.child).Round(time.Microsecond)))
	}
	return out
}

// write dumps the spans (one "id parent req name start_ns end_ns" line
// each) preceded by the per-layer self-time table, to dir/name.spans.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, l := range r.selfTimes() {
		fmt.Fprintf(w, "# %s\n", l)
	}
	r.mu.Lock()
	fmt.Fprintf(w, "# %d spans kept of %d\n", len(r.spans), r.nextID)
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d %d %d %s %d %d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// clientSpans records one finished request's client-side spans: submit to
// ack, ack to first token, each token after the first, first token to done.
func clientSpans(rec *recorder, id uint64, r *reqRec) {
	if r.got == 0 {
		return
	}
	rec.point(id, spanAck, r.sent, r.ack)
	rec.point(id, spanFirst, r.ack, r.first)
	for i := 1; i < len(r.times); i++ {
		rec.point(id, spanToken, r.times[i-1], r.times[i])
	}
	rec.point(id, spanDone, r.first, r.last)
}
