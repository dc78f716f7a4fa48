package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qoserve/internal/qos"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether n samples put at least minBeyond samples beyond
// the q-th percentile.
func tailOK(n int, q float64) bool { return n > 0 && n-rank(n, q) >= minBeyond }

// percentile is the nearest-rank q-th percentile of vs (sorted in place);
// NaN when vs is empty.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	return vs[rank(len(vs), q)-1]
}

// median is the middle of vs (the mean of the two middle values for an even
// count), sorting vs in place; NaN when empty.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// virtualMS converts a wall duration into virtual milliseconds: a server
// running at timescale T advances T virtual seconds per wall second.
func virtualMS(wall time.Duration, timescale float64) float64 {
	return float64(wall) / float64(time.Millisecond) * timescale
}

// reqRec is one request as its client saw it. Times are wall offsets from
// the run's origin. Open-loop requests are timed from due, the moment the
// schedule wanted them sent, so a stall in the generator or the server
// shows up in every request it delays.
type reqRec struct {
	class      qos.Class
	due, sent  time.Duration
	ack        time.Duration // submit accepted / response headers read
	first      time.Duration // first token received
	last       time.Duration // latest token received
	want, got  int           // declared and in-order received tokens
	done       bool          // the final token arrived marked done
	err        string        // why the request failed; "" if it did not
	serverTTFT time.Duration // TTFT the server reported (virtual)
	chainToks  int           // prompt tokens covered by the prefix chain
	gaps       []time.Duration
	times      []time.Duration // every token's arrival, kept by traced runs only
}

// token records token idx (1-based) arriving at wall offset at, marked
// final when done is set. Anything but tokens 1..want in order, the last
// one marked done, fails the request.
func (r *reqRec) token(idx int, done bool, at time.Duration) {
	if r.err != "" {
		return
	}
	switch {
	case r.done:
		r.err = fmt.Sprintf("token %d after done", idx)
		return
	case idx != r.got+1:
		r.err = fmt.Sprintf("token %d after %d", idx, r.got)
		return
	case done != (idx == r.want):
		r.err = fmt.Sprintf("token %d of %d marked done=%v", idx, r.want, done)
		return
	}
	if r.times != nil {
		r.times = append(r.times, at)
	}
	if r.got == 0 {
		r.first = at
	} else {
		r.gaps = append(r.gaps, at-r.last)
	}
	r.got, r.last, r.done = idx, at, done
}

func (r *reqRec) fail(format string, args ...any) {
	if r.err == "" {
		r.err = fmt.Sprintf(format, args...)
	}
}

// completed reports whether the request was served in full.
func (r *reqRec) completed() bool { return r.err == "" && r.done }

// met reports whether the request met its class SLO: first token within
// TTFT for an interactive class, last token within TTLT otherwise, timed
// from due. A failed or unfinished request never meets it.
func (r *reqRec) met(timescale float64) bool {
	if !r.completed() {
		return false
	}
	if r.class.Kind == qos.Interactive {
		return virtualMS(r.first-r.due, timescale) <= r.class.SLO.TTFT.Duration().Seconds()*1e3
	}
	return virtualMS(r.last-r.due, timescale) <= r.class.SLO.TTLT.Duration().Seconds()*1e3
}

// phase aggregates the requests sent in one phase of a run.
type phase struct {
	timescale float64
	window    time.Duration // wall length of the phase's arrival window
	reqs      []*reqRec
}

// phaseStats is what one phase's requests add up to.
type phaseStats struct {
	sent, completed, failed, unfinished, met int
	tokens                                   int
	// ttft holds interactive requests only: Q2/Q3 promise completion, and
	// QoServe defers their first token by design.
	ttft, gaps, late []float64 // virtual ms, virtual ms, wall ms
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	for _, r := range p.reqs {
		s.sent++
		s.tokens += r.got
		s.late = append(s.late, float64(r.sent-r.due)/float64(time.Millisecond))
		switch {
		case r.err != "":
			s.failed++
		case r.done:
			s.completed++
		default:
			s.unfinished++
		}
		if r.met(p.timescale) {
			s.met++
		}
		if r.err == "" && r.got > 0 {
			if r.class.Kind == qos.Interactive {
				s.ttft = append(s.ttft, virtualMS(r.first-r.due, p.timescale))
			}
			for _, g := range r.gaps {
				s.gaps = append(s.gaps, virtualMS(g, p.timescale))
			}
		}
	}
	return s
}

// attainment is the share of requests sent that met their SLO; failed and
// refused requests count as misses.
func (s phaseStats) attainment() float64 {
	if s.sent == 0 {
		return 0
	}
	return float64(s.met) / float64(s.sent)
}

// goodput is SLO-meeting completions per virtual second of the arrival
// window.
func (p *phase) goodput(s phaseStats) float64 {
	return float64(s.met) / (p.window.Seconds() * p.timescale)
}

// accounted checks that every request sent is exactly one of completed,
// failed or unfinished.
func (s phaseStats) accounted() bool {
	return s.sent == s.completed+s.failed+s.unfinished
}

// tails are the percentiles a workload reports as ttft_tail_ms and
// tbt_tail_ms.
type tails struct{ ttft, tbt float64 }

// p99 is the tail wherever a phase carries enough samples for it and it
// holds steady run to run.
var p99 = tails{ttft: 0.99, tbt: 0.99}

// latencyMetrics sets the TTFT and TBT metrics from s. A run whose phase
// carries too few samples for the workload's tail percentiles is marked
// invalid.
func latencyMetrics(res *result, s phaseStats, q tails) {
	res.check(tailOK(len(s.ttft), q.ttft), "%d first tokens cannot support a p%g TTFT", len(s.ttft), q.ttft*100)
	res.check(tailOK(len(s.gaps), q.tbt), "%d token gaps cannot support a p%g TBT", len(s.gaps), q.tbt*100)
	res.set("ttft_p50_ms", percentile(s.ttft, 0.5), "ms")
	res.set("ttft_tail_ms", percentile(s.ttft, q.ttft), "ms")
	res.set("tbt_p50_ms", percentile(s.gaps, 0.5), "ms")
	res.set("tbt_tail_ms", percentile(s.gaps, q.tbt), "ms")
	res.note("ttft_tail_ms is p%g of %d first tokens, tbt_tail_ms p%g of %d token gaps", q.ttft*100, len(s.ttft), q.tbt*100, len(s.gaps))
}

// cpuTime is the user+system CPU the calling process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; 100 on every mainstream Linux.
const clockTicks = 100

// procCPU reads user+system CPU of process pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads VmHWM, the peak resident set of process pid ("self" for
// this process), in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
