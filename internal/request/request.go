// Package request models the lifecycle of one inference request as it moves
// through a serving replica: queued -> prefill -> decode -> done, with the
// token-level timestamps needed to evaluate TTFT / TBT / TTLT SLOs.
package request

import (
	"fmt"

	"qoserve/internal/qos"
	"qoserve/internal/sim"
)

// Phase is the position of a request in its lifecycle.
type Phase int

// Lifecycle phases.
const (
	Queued  Phase = iota // arrived, no prefill tokens processed yet
	Prefill              // some, but not all, prompt tokens processed
	Decode               // prompt done, generating output tokens
	Done                 // all output tokens generated
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Queued:
		return "queued"
	case Prefill:
		return "prefill"
	case Decode:
		return "decode"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Request is one inference request. Fields in the first block are immutable
// workload inputs; the second block is mutable execution state owned by the
// replica that serves the request.
//
// DecodeTokens is ground truth known only to the simulator: schedulers must
// not read it directly (the paper's point is that decode length is unknown
// at scheduling time) — they use EstDecodeTokens, populated from per-app
// history.
type Request struct {
	ID           uint64
	App          string // application identifier, keys decode-length history
	Class        qos.Class
	Priority     qos.Priority
	Arrival      sim.Time
	PromptTokens int
	DecodeTokens int // ground truth output length (>= 1)

	// EstDecodeTokens is the scheduler's estimate of DecodeTokens
	// (per-app mean + 2 sigma in QoServe). Zero means no estimate.
	EstDecodeTokens int

	// PrefixHashes is the request's prefix hash chain (one cumulative
	// hash per full prompt block, see kvcache.ExtendChain), or nil when
	// the prompt shares no prefix. Like the other workload inputs it is
	// immutable; the serving layer matches it against each replica's
	// prefix cache.
	PrefixHashes []uint64

	// Relegated marks a request moved to the relegated queue by QoServe's
	// eager relegation; it is served opportunistically.
	Relegated bool

	// Execution state.
	PrefilledTokens int
	// PrefixHitTokens is the prompt tokens credited from the serving
	// replica's prefix cache at admission: PrefilledTokens starts at this
	// value (see ApplyPrefixHit), so chunk planners simply see less
	// remaining prefill. Always < PromptTokens — the final prompt token is
	// never cached, so every request runs at least one prefill iteration.
	PrefixHitTokens int
	DecodedTokens   int      // output tokens emitted (first token counts)
	FirstTokenAt    sim.Time // valid when DecodedTokens >= 1
	FinishedAt      sim.Time // valid when Phase() == Done
	LastTokenAt     sim.Time // time of most recent output token
	MaxTBT          sim.Time // largest inter-token gap observed
	// TBTViolations counts output tokens that both missed their Eq. 2
	// deadline (arrival + TTFT + (n-1)*TBT) and arrived more than one TBT
	// after the previous token. Anchoring deadlines at arrival means
	// slack from an early prefill may be spent later without penalty
	// (exactly what dynamic chunking exploits), while the gap condition
	// keeps a request that fell behind once — an already-counted TTFT
	// miss — from re-counting every correctly-paced subsequent token.
	TBTViolations int

	// Retries counts re-enqueues after replica failures. Each retry
	// discards all execution progress (the KV cache died with the
	// replica) but preserves Arrival, so deadlines and priority keys are
	// unchanged: a retried request competes exactly as if it had queued
	// since its original arrival.
	Retries int
	// FailedReason is non-empty once the serving layer has permanently
	// given up on the request (retry budget exhausted, no healthy
	// replica). A failed request never completes and is reported as an
	// SLO violation rather than silently dropped.
	FailedReason string
}

// Validate reports an input error, if any.
func (r *Request) Validate() error {
	if err := r.Class.Validate(); err != nil {
		return fmt.Errorf("request %d: %w", r.ID, err)
	}
	if r.PromptTokens <= 0 {
		return fmt.Errorf("request %d: prompt tokens %d", r.ID, r.PromptTokens)
	}
	if r.DecodeTokens <= 0 {
		return fmt.Errorf("request %d: decode tokens %d", r.ID, r.DecodeTokens)
	}
	return nil
}

// Phase returns the current lifecycle phase.
//
//qoserve:hotpath
func (r *Request) Phase() Phase {
	switch {
	case r.DecodedTokens >= r.DecodeTokens:
		return Done
	case r.PrefilledTokens >= r.PromptTokens:
		return Decode
	case r.PrefilledTokens > 0:
		return Prefill
	default:
		return Queued
	}
}

// RemainingPrefill is the number of prompt tokens not yet processed.
//
//qoserve:hotpath
func (r *Request) RemainingPrefill() int {
	if rem := r.PromptTokens - r.PrefilledTokens; rem > 0 {
		return rem
	}
	return 0
}

// ContextLen is the KV-cache context this request currently occupies:
// processed prompt tokens plus generated tokens.
//
//qoserve:hotpath
func (r *Request) ContextLen() int {
	return r.PrefilledTokens + r.DecodedTokens
}

// ArrivalTime returns r.Arrival. Its method expression is the arrival
// function sim.Feed takes to feed a trace.
func (r *Request) ArrivalTime() sim.Time { return r.Arrival }

// TotalTokens is the final context length at completion.
//
//qoserve:hotpath
func (r *Request) TotalTokens() int { return r.PromptTokens + r.DecodeTokens }

// RecordPrefill accounts for tokens prompt tokens processed in an iteration
// that completed at time now. If this finishes the prompt, the first output
// token is emitted by the same iteration (standard chunked-prefill
// behaviour), so TTFT is stamped here.
//
//qoserve:hotpath
func (r *Request) RecordPrefill(tokens int, now sim.Time) {
	if tokens <= 0 {
		return
	}
	r.PrefilledTokens += tokens
	if r.PrefilledTokens > r.PromptTokens {
		//lint:ignore hotpathalloc panic formatting only runs on a broken scheduler contract, never in steady state
		panic(fmt.Sprintf("request %d: prefilled %d > prompt %d", r.ID, r.PrefilledTokens, r.PromptTokens))
	}
	if r.PrefilledTokens == r.PromptTokens {
		r.emitToken(now)
	}
}

// RecordDecodeToken accounts for one output token emitted at time now by a
// decode iteration.
//
//qoserve:hotpath
func (r *Request) RecordDecodeToken(now sim.Time) {
	if r.Phase() != Decode {
		//lint:ignore hotpathalloc panic formatting only runs on a broken scheduler contract, never in steady state
		panic(fmt.Sprintf("request %d: decode token in phase %v", r.ID, r.Phase()))
	}
	r.emitToken(now)
}

//qoserve:hotpath
func (r *Request) emitToken(now sim.Time) {
	n := r.DecodedTokens + 1 // 1-based index of the token being emitted
	if n == 1 {
		r.FirstTokenAt = now
	} else {
		gap := now - r.LastTokenAt
		if gap > r.MaxTBT {
			r.MaxTBT = gap
		}
		if r.Class.Kind == qos.Interactive && gap > r.Class.SLO.TBT &&
			now > r.Class.TokenDeadline(r.Arrival, n) {
			r.TBTViolations++
		}
	}
	r.LastTokenAt = now
	r.DecodedTokens = n
	if r.DecodedTokens == r.DecodeTokens {
		r.FinishedAt = now
	}
}

// ApplyPrefixHit credits hit prompt tokens as already prefilled, from a
// prefix-cache match at admission. The credit is capped at PromptTokens-1
// so the request still performs at least one prefill token (producing the
// first output token the normal way) and enters the scheduler in a
// pre-decode phase, as the scheduler contract requires. It must be called
// before any real prefill progress and is idempotent per admission; a
// replica re-admitting after retry calls it again with its own match.
func (r *Request) ApplyPrefixHit(hit int) {
	if r.PrefilledTokens != r.PrefixHitTokens {
		panic(fmt.Sprintf("request %d: prefix hit applied after prefill started", r.ID))
	}
	if max := r.PromptTokens - 1; hit > max {
		hit = max
	}
	if hit < 0 {
		hit = 0
	}
	r.PrefixHitTokens = hit
	r.PrefilledTokens = hit
}

// ResetPrefill discards all prefill progress (the prefix-cache credit
// included), returning the request to the Queued phase. Replicas use this
// for recompute-style preemption when the KV cache must be reclaimed. It
// panics once decoding has started, because decodes are never preempted
// (Section 3.4, selective preemption).
func (r *Request) ResetPrefill() {
	if r.DecodedTokens > 0 {
		panic(fmt.Sprintf("request %d: ResetPrefill after decoding started", r.ID))
	}
	r.PrefilledTokens = 0
	r.PrefixHitTokens = 0
}

// ResetForRetry discards all execution progress — prefill, decode, token
// timestamps, TBT accounting — returning the request to the Queued phase so
// it can be replayed from scratch on another replica after a crash. The
// immutable workload inputs (Arrival, Class, Priority, token counts) are
// untouched: deadlines stay anchored at the original arrival. It increments
// Retries and returns the number of context tokens of progress lost.
func (r *Request) ResetForRetry() int {
	lost := r.ContextLen()
	r.PrefilledTokens = 0
	r.PrefixHitTokens = 0
	r.DecodedTokens = 0
	r.FirstTokenAt = 0
	r.FinishedAt = 0
	r.LastTokenAt = 0
	r.MaxTBT = 0
	r.TBTViolations = 0
	r.Retries++
	return lost
}

// Failed reports whether the serving layer permanently gave up on the
// request.
func (r *Request) Failed() bool { return r.FailedReason != "" }

// TTFT returns the observed time to first token; ok is false if the first
// token has not been produced.
func (r *Request) TTFT() (sim.Time, bool) {
	if r.DecodedTokens < 1 {
		return 0, false
	}
	return r.FirstTokenAt - r.Arrival, true
}

// TTLT returns the observed completion latency; ok is false while running.
func (r *Request) TTLT() (sim.Time, bool) {
	if r.Phase() != Done {
		return 0, false
	}
	return r.FinishedAt - r.Arrival, true
}

// FirstTokenDeadline is Eq. 1 (interactive) / Eq. 3 (non-interactive).
//
//qoserve:hotpath
func (r *Request) FirstTokenDeadline() sim.Time {
	return r.Class.FirstTokenDeadline(r.Arrival)
}

// NextTokenDeadline is the deadline (Eq. 2 / Eq. 3) of the *next* output
// token this request is due to produce. For a request still in prefill this
// is the first-token deadline.
//
//qoserve:hotpath
func (r *Request) NextTokenDeadline() sim.Time {
	return r.Class.TokenDeadline(r.Arrival, r.DecodedTokens+1)
}

// CompletionDeadline is the latest acceptable finish time, using the
// scheduler-visible decode length (estimate if present, else what has been
// generated so far plus one).
//
//qoserve:hotpath
func (r *Request) CompletionDeadline() sim.Time {
	n := r.EstDecodeTokens
	if n < r.DecodedTokens+1 {
		n = r.DecodedTokens + 1
	}
	return r.Class.CompletionDeadline(r.Arrival, n)
}

// ViolatedSLO reports whether the request has irrecoverably missed its SLO
// by time now: TTFT missed for interactive, TTLT missed (or unfinished past
// deadline) for non-interactive. This is the paper's headline "deadline
// violation" metric; TBT misses are tracked separately (the paper reports
// they stay <0.1% under all schemes).
func (r *Request) ViolatedSLO(now sim.Time) bool {
	if r.Failed() {
		// Permanently failed requests can never meet any SLO; counting
		// them as violations keeps them out of the "truncated, not yet
		// judged" bucket so they are never silently dropped from metrics.
		return true
	}
	switch r.Class.Kind {
	case qos.Interactive:
		if r.DecodedTokens >= 1 {
			return r.FirstTokenAt > r.FirstTokenDeadline()
		}
		return now > r.FirstTokenDeadline()
	default:
		deadline := r.Arrival + r.Class.SLO.TTLT
		if r.Phase() == Done {
			return r.FinishedAt > deadline
		}
		return now > deadline
	}
}
