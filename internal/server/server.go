// Package server runs QoServe schedulers in real time: wall-clock serving
// loops that drive the same replica.Core as the simulator — admit, plan a
// batch, "execute" for the cost-model duration, account tokens — and stream
// token events to concurrent clients.
//
// This is the serving-system face of the reproduction: the paper's artifact
// is a scheduler inside a serving engine, and this package provides that
// engine shape without GPUs. Execution time comes from the calibrated cost
// model, optionally accelerated by a timescale factor, so the server doubles
// as a QoS-policy load-testing harness: clients declare their request
// shapes (prompt/decode token counts) and observe exactly the TTFT/TBT/TTLT
// behaviour the scheduler produces under contention. cmd/qoserved exposes it
// over HTTP; cmd/qoserve-loadgen drives it at scale.
//
// # Gateway architecture
//
// The server is a sharded gateway, not a single loop behind one mutex.
// Config.Replicas independent serving loops each own a scheduler, an
// admission inbox, a stream table, and a histogram shard. Submitters are
// routed by a lock-free balancer (cluster.AtomicRoundRobin by default),
// append to the chosen replica's inbox under a small admission lock, and
// return immediately; the loop swaps the whole inbox out once per
// iteration. Per-iteration token accounting runs under the replica's
// scheduler lock, but no channel operation ever happens under any lock:
// events are staged under the lock, coalesced into one event frame per
// stream per iteration, and delivered afterwards with non-blocking sends
// (see stream.go). Slow consumers lose intermediate token events (counted
// in qoserve_stream_dropped_events_total) but never the final one, so the
// batch loop can never be stalled by a client. Idle loops park on a
// 1-buffered notify channel kicked by admission, fault recovery, handoff
// delivery, and Close — no polling. Lifetime counters are atomics, and the
// request, stream-entry, and frame objects recycle through free lists, so
// a warm gateway serves without allocating at all.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/disagg"
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/replica"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
	"qoserve/internal/trace"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: closed")

// ErrNoHealthyReplica is returned by Submit when every prefill-tier
// replica is down (disaggregated mode only).
var ErrNoHealthyReplica = errors.New("server: no healthy prefill replica")

// SubmissionError reports an invalid submission. The HTTP layer maps it to
// a 400 response whose JSON body carries both fields (see the error schema
// in docs/OPERATIONS.md).
type SubmissionError struct {
	// Field is the offending submission field, in wire (JSON) naming.
	Field string
	// Msg says what is wrong with it.
	Msg string
}

// Error implements error.
func (e *SubmissionError) Error() string {
	return fmt.Sprintf("server: invalid %s: %s", e.Field, e.Msg)
}

// Event is one streamed token notification.
type Event struct {
	// Token is the 1-based output token index.
	Token int
	// At is the virtual emission time.
	At time.Duration
	// Done marks the final token.
	Done bool
}

// Config configures a real-time server.
type Config struct {
	Model model.Config
	// SchedulerFactory builds one independent scheduler per replica (each
	// serving loop must own its policy state); the disagg decode tier runs
	// its own FCFS decode scheduler instead. Required.
	SchedulerFactory func() sched.Scheduler
	// Replicas is the number of independent serving loops (default 1).
	// Throughput scales with replicas: each loop "executes" its batches
	// concurrently, exactly like replicas of a model server sharing a
	// frontend.
	Replicas int
	// Balancer routes submissions across replicas. Nil uses a lock-free
	// round robin (cluster.AtomicRoundRobin); cluster.LeastLoaded routes
	// to the replica with the fewest unfinished requests; a
	// cluster.PrefixRouter (e.g. *cluster.PrefixAffinity) additionally
	// probes each replica's prefix cache and routes to the longest cached
	// prefix. The balancer must be safe for concurrent pickers.
	Balancer cluster.GatewayBalancer
	// KV configures each serving loop's prefix-aware KV cache (block
	// size, HBM/DRAM tier sizes, reload rate). Zero CapacityTokens derives
	// the HBM size from Model. The gateway uses the cache for prefix
	// sharing only — matched prompt tokens skip prefill and DRAM reloads
	// delay the admitting iteration — not for admission control, which the
	// cost model does not need without real GPU memory.
	KV kvcache.Config
	// GlobalPrefixIndex has no effect: every replica always publishes its
	// prefix-cache membership into a lock-free global index
	// (kvcache.GlobalIndex), and routing probes that index instead of
	// taking per-replica cache locks. Kept so existing callers compile.
	GlobalPrefixIndex bool
	// KVTransferBandwidth enables cross-replica KV migration: when another
	// replica holds a longer cached prefix than the routed one, the missing
	// blocks move over an interconnect of this many bytes per second of
	// virtual time instead of being recomputed — if the modeled transfer is
	// cheaper than the prefill it saves. Zero disables migration. Valid in
	// both modes; distinct from TransferBandwidth, the disagg
	// prefill->decode handoff fabric.
	KVTransferBandwidth float64
	// StreamBuffer is roughly how many undelivered events each stream may
	// hold (default 256): the per-stream frame channel is
	// max(2, StreamBuffer/EventFrame) frames deep. See Stream for what a
	// consumer that falls further behind loses.
	StreamBuffer int
	// EventFrame is the most events one frame carries (default 16): all
	// tokens a stream produced since its last delivery coalesce into a
	// single pooled frame. See stream.go for the frame lifecycle.
	EventFrame int
	// Classes that submissions may reference.
	Classes []qos.Class
	// Timescale accelerates virtual time relative to wall time (e.g.
	// 100 means a 50 ms iteration sleeps 0.5 ms). Default 1.
	Timescale float64
	// TraceDepth enables live iteration tracing with a ring buffer
	// retaining that many iterations, served by GET /debug/trace. Zero
	// (the default) disables tracing entirely: the schedulers keep their
	// no-op tracers and the hot path pays only a branch per iteration.
	// With multiple replicas all loops share one ring.
	TraceDepth int
	// MetricsWindow is the trailing window (virtual time) over which the
	// per-class TTFT/TTLT/TBT and violation-rate gauges on GET /metrics
	// are computed. Default one minute.
	MetricsWindow time.Duration

	// Mode selects the gateway topology. "" or "colocated" (the default)
	// runs every replica as a full serving loop handling both prefill and
	// decode. "disagg" splits the replicas into a prefill tier (the first
	// PrefillReplicas loops, running the configured scheduler with its
	// chunked, preemptible prefill granularity) and a decode tier (the
	// rest, running FCFS capped decode batches). Prompts prefill on the
	// prefill tier, then their KV pages transfer over a modeled
	// interconnect to a fixed decode-tier home that streams the output
	// tokens. See docs/ARCHITECTURE.md for the two-tier lifecycle.
	Mode string
	// PrefillReplicas is the prefill-tier size in disagg mode (default
	// (Replicas+1)/2). The remaining replicas form the decode tier; both
	// tiers need at least one replica.
	PrefillReplicas int
	// MaxDecodeBatch caps decode-tier batch size in disagg mode. Zero
	// derives the largest batch whose iteration time stays under the
	// strictest TBT SLO among Classes from the cost model
	// (disagg.DeriveDecodeBatch; see strictestTBT).
	MaxDecodeBatch int
	// TransferBandwidth is the prefill->decode KV interconnect in bytes
	// per second of virtual time (default 64 GB/s, an NVLink-class
	// fabric). Disagg only.
	TransferBandwidth float64
}

// Server is the sharded real-time serving gateway. Create with New, stop
// with Close. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	classes map[string]qos.Class
	start   time.Time // immutable after New

	balancer cluster.GatewayBalancer
	loadOf   func(int) int                  // balancer load probe over reps
	snapOf   func(int) replica.LoadSnapshot // balancer queue-state probe

	// prefillReps is the prefill-tier size in disagg mode; 0 means
	// colocated. Immutable after New.
	prefillReps int

	nextID   atomic.Uint64
	closed   atomic.Bool
	inFlight atomic.Int64 // accepted but unfinished requests

	iterations    atomic.Uint64
	tokens        atomic.Uint64
	prefillTokens atomic.Uint64
	decodeTokens  atomic.Uint64
	droppedEvents atomic.Uint64
	prefixHits    atomic.Uint64 // prompt tokens served from prefix caches
	reloadTokens  atomic.Uint64 // hit tokens promoted from the DRAM tier

	// prefixIdx is the global prefix index replicas publish their cache
	// membership into, and the only way routing sees prefix caches.
	// Entries can be stale (a crashed replica keeps its last publication)
	// — consumers re-validate liveness before acting on a hit.
	prefixIdx *kvcache.GlobalIndex
	// kvBlockTokens is the prefix-cache block size every replica shares,
	// read once so submissions never take a replica's kvMu for it.
	// Immutable after New.
	kvBlockTokens int

	prefixTransferTokens atomic.Uint64 // hit tokens imported across replicas
	transferFallbacks    atomic.Uint64 // planned imports abandoned at admission
	importTime           atomic.Int64  // sim.Time the imports occupied the links
	importStall          atomic.Int64  // sim.Time batches waited on imports

	// Disagg-mode lifetime counters.
	handoffs       atomic.Uint64 // prefill->decode KV handoffs launched
	transferTokens atomic.Uint64 // prompt tokens whose KV crossed tiers
	retries        atomic.Uint64 // re-prefills after prefill-tier crashes
	lostTokens     atomic.Uint64 // tokens of progress discarded by crashes
	failedReqs     atomic.Int64  // requests permanently failed with a reason

	// accepted counts submissions that entered a serving loop.
	accepted atomic.Uint64
	// streamShrinks counts post-burst stream-table rebuilds.
	streamShrinks atomic.Uint64

	// finMu guards the accepted-request ledger: live requests by ID and
	// the frozen outcomes of finished ones. Serving loops freeze and
	// recycle requests under it; the metrics scanners read under it. It is
	// a leaf lock — nothing else is acquired while holding it.
	finMu  sync.Mutex
	live   map[uint64]*request.Request // guarded by finMu
	ledger outcomeLedger               // guarded by finMu

	// frameBuf is the per-stream frame-channel depth. Immutable after New.
	frameBuf int
	// Free lists of recycled requests, stream entries, and event frames.
	// See stream.go.
	reqPool   chan *request.Request
	entryPool chan *streamEntry
	framePool chan []Event

	// drainWake is kicked when the last in-flight request retires, waking
	// Drain without polling.
	drainWake chan struct{}

	reps []*gatewayReplica
	wg   sync.WaitGroup

	// tracer is non-nil when Config.TraceDepth enabled tracing; it is
	// shared by every replica's scheduler (trace.Ring is thread-safe).
	tracer *trace.Ring
}

// gatewayReplica is one serving loop: the wall-clock driver of a
// replica.Core, plus its admission inbox, stream table, and histogram
// shard. The mutexes split the old global server lock — submitters only
// ever touch inboxMu, metrics readers only mu and kvMu — so admission,
// planning, and observability no longer contend on one word.
type gatewayReplica struct {
	srv *Server
	idx int

	// mu is the scheduler lock: it guards planning, token accounting, and
	// queue introspection — every Core call that reaches the scheduler
	// (Admit, AdmitHandoff, Plan, Complete). It is never held across a
	// sleep or a channel operation.
	mu sync.Mutex
	// core is the replica's state machine. Its scheduler side runs under
	// mu, its cache side (Admit, Release, Publish, KV) under kvMu; Price,
	// the debt it clears and the import link it reads are loop-owned.
	core *replica.Core
	// decode is core's scheduler on a disagg decode-tier replica, nil
	// elsewhere.
	decode *disagg.DecodeScheduler

	// inboxMu is the admission lock: submitters append, the serving loop
	// swaps the whole inbox out once per iteration.
	inboxMu sync.Mutex
	inbox   []admission // guarded by inboxMu
	// notify is the loop's 1-buffered wakeup channel: producers kick()
	// after appending to the inbox (and on Crash/Close), and the loop
	// re-checks its predicate under inboxMu after every receive, so a
	// wakeup can never be lost and an idle loop burns no CPU.
	notify chan struct{}

	// load counts unfinished requests routed here; the balancer probes it
	// without locks.
	load atomic.Int64

	// Queue-state gauges forming this replica's replica.LoadSnapshot,
	// probed lock-free by snapshot-aware balancers (cluster.
	// PredictedLatency) and GET /debug/load. Submitters add arriving work,
	// the serving loop retires it per iteration; the writers are not
	// mutually synchronized, so readers clamp rather than trust invariants
	// (see loadSnapshot).
	snapQueued  atomic.Int64 // requests not yet past prefill
	snapPrefill atomic.Int64 // unprefilled prompt tokens queued
	snapDecodes atomic.Int64 // requests in decode phase
	snapSumCtx  atomic.Int64 // summed context of decode-phase requests
	snapMaxCtx  atomic.Int64 // largest context among them
	snapChunk   atomic.Int64 // last planned prefill chunk (tokens)

	// down marks a crashed replica (disagg prefill tier only). The loop
	// observes it, drains its queue through retry-or-fail, and exits.
	down atomic.Bool

	// pending tracks prefill clones admitted here and not yet handed off
	// to the decode tier, keyed by clone ID. Loop-owned (crashDrain runs
	// on the loop goroutine); nil outside the disagg prefill tier.
	pending map[uint64]pendingHandoff

	// kvMu guards the core's prefix cache. The serving loop pins prefixes
	// at admission and unpins on completion, publishing membership changes
	// to the global index; submitters never take it. Lock order: mu may be
	// taken before kvMu, never after.
	kvMu sync.Mutex

	// Loop-owned state, touched only by the serving goroutine.
	drained     []admission             // inbox swap buffer
	streams     map[uint64]*streamEntry // live streams by request ID
	streamsPeak int                     // high-water mark since last shrink
	sendQ       []*streamEntry          // entries with staged frames
	finalQ      []*streamEntry          // streams finished this iteration
	spares      [][]Event               // pre-stocked frames for flushFrames
	idleTimer   *time.Timer             // idleWait's reusable fallback timer
	active      int                     // requests admitted here and unfinished
	hist        histShard               // iteration-latency histogram shard
	handoffQ    []pendingHandoff        // clones finished this iteration, to launch
	tally       loadTally               // gauge changes of the batch being completed
}

// loadTally accumulates one completed batch's load-gauge changes as its
// tokens are delivered, so the gauges update once per iteration.
type loadTally struct {
	queued  int64 // requests that emitted their first token
	decodes int   // requests left in decode phase
	sumCtx  int
	maxCtx  int
}

// admission is one submitted request en route to its serving loop. On the
// disagg prefill tier req is a single-token prefill clone and orig/home
// carry the real request and its decode-tier destination; elsewhere orig
// is nil.
type admission struct {
	req   *request.Request
	entry *streamEntry
	orig  *request.Request
	home  int
	// xfer is the cross-replica KV import planned at enqueue, if any.
	xfer transferPlan
}

// transferPlan is a planned cross-replica KV import: credit tokens of the
// prefix by migrating the missing blocks from replica from, a transfer
// that starts at virtual time at, when it was planned. Zero tokens means
// no import was planned; the plan is re-validated at admission (see
// planTransfer).
type transferPlan struct {
	from, tokens int
	at           sim.Time
}

// pendingHandoff is one request whose prompt is prefilling on this tier as
// a single-token clone, awaiting KV transfer to its fixed decode home.
type pendingHandoff struct {
	clone *request.Request
	orig  *request.Request
	entry *streamEntry
	home  int // decode-tier replica index, fixed at submission
}

// New validates the configuration and starts the serving loops.
func New(cfg Config) (*Server, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("server: negative replica count")
	}
	if cfg.SchedulerFactory == nil {
		return nil, fmt.Errorf("server: nil SchedulerFactory")
	}
	if cfg.Timescale == 0 {
		cfg.Timescale = 1
	}
	if cfg.Timescale < 0 {
		return nil, fmt.Errorf("server: negative timescale")
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = 256
	}
	if cfg.StreamBuffer < 0 {
		return nil, fmt.Errorf("server: negative stream buffer")
	}
	if cfg.EventFrame == 0 {
		cfg.EventFrame = 16
	}
	if cfg.EventFrame < 0 {
		return nil, fmt.Errorf("server: negative event frame size")
	}
	if cfg.TraceDepth < 0 {
		return nil, fmt.Errorf("server: negative trace depth")
	}
	if cfg.MetricsWindow == 0 {
		cfg.MetricsWindow = time.Minute
	}
	if cfg.MetricsWindow < 0 {
		return nil, fmt.Errorf("server: negative metrics window")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("server: no QoS classes configured")
	}
	if cfg.KVTransferBandwidth < 0 {
		return nil, fmt.Errorf("server: negative KV transfer bandwidth")
	}
	switch cfg.Mode {
	case "", "colocated":
		if cfg.PrefillReplicas != 0 {
			return nil, fmt.Errorf("server: PrefillReplicas requires Mode \"disagg\"")
		}
	case "disagg":
		if cfg.Replicas < 2 {
			return nil, fmt.Errorf("server: disagg mode needs at least 2 replicas (one per tier), got %d", cfg.Replicas)
		}
		if cfg.PrefillReplicas == 0 {
			cfg.PrefillReplicas = (cfg.Replicas + 1) / 2
		}
		if cfg.PrefillReplicas < 1 || cfg.PrefillReplicas >= cfg.Replicas {
			return nil, fmt.Errorf("server: %d prefill replicas leaves no decode tier (replicas %d)", cfg.PrefillReplicas, cfg.Replicas)
		}
		if cfg.TransferBandwidth == 0 {
			cfg.TransferBandwidth = 64e9
		}
		if cfg.TransferBandwidth < 0 {
			return nil, fmt.Errorf("server: negative transfer bandwidth")
		}
		if cfg.MaxDecodeBatch == 0 {
			cfg.MaxDecodeBatch = disagg.DeriveDecodeBatch(cfg.Model, strictestTBT(cfg.Classes), 2048)
		}
		if cfg.MaxDecodeBatch < 1 {
			return nil, fmt.Errorf("server: decode batch cap %d", cfg.MaxDecodeBatch)
		}
	default:
		return nil, fmt.Errorf("server: unknown mode %q (want \"colocated\" or \"disagg\")", cfg.Mode)
	}
	// Every replica runs the configured policy except the disagg decode
	// tier, which runs its own FCFS decode scheduler.
	scheds := make([]sched.Scheduler, cfg.Replicas)
	if cfg.Mode == "disagg" {
		scheds = scheds[:cfg.PrefillReplicas]
	}
	for i := range scheds {
		if scheds[i] = cfg.SchedulerFactory(); scheds[i] == nil {
			return nil, fmt.Errorf("server: SchedulerFactory returned nil")
		}
	}
	s := &Server{
		cfg:       cfg,
		classes:   make(map[string]qos.Class, len(cfg.Classes)),
		start:     time.Now(),
		balancer:  cfg.Balancer,
		live:      make(map[uint64]*request.Request, 256),
		ledger:    newOutcomeLedger(sim.FromDuration(cfg.MetricsWindow), cfg.Classes),
		frameBuf:  max(2, cfg.StreamBuffer/cfg.EventFrame),
		reqPool:   make(chan *request.Request, poolCap),
		entryPool: make(chan *streamEntry, poolCap),
		framePool: make(chan []Event, poolCap),
		drainWake: make(chan struct{}, 1),
	}
	if s.balancer == nil {
		s.balancer = &cluster.AtomicRoundRobin{}
	}
	if cfg.TraceDepth > 0 {
		s.tracer = trace.NewRing(cfg.TraceDepth)
		for _, sc := range scheds {
			tr, ok := sc.(sched.Traceable)
			if !ok {
				return nil, fmt.Errorf("server: scheduler %s does not support tracing", sc.Name())
			}
			tr.SetTracer(s.tracer)
		}
	}
	for _, c := range cfg.Classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		s.classes[c.Name] = c
	}
	s.loadOf = func(i int) int { return int(s.reps[i].load.Load()) }
	s.snapOf = func(i int) replica.LoadSnapshot { return s.reps[i].loadSnapshot() }
	s.prefixIdx = kvcache.NewGlobalIndex(cfg.Replicas)
	if cfg.Mode == "disagg" {
		s.prefillReps = cfg.PrefillReplicas
	}
	kvCfg := cfg.KV
	if kvCfg.CapacityTokens == 0 {
		kvCfg.CapacityTokens = cfg.Model.KVCapacityTokens()
	}
	for i := 0; i < cfg.Replicas; i++ {
		kv, err := kvcache.NewTiered(kvCfg)
		if err != nil {
			return nil, err
		}
		s.kvBlockTokens = kv.BlockTokens() // the same kvCfg for every replica
		rp := &gatewayReplica{
			srv:     s,
			idx:     i,
			streams: make(map[uint64]*streamEntry, 64),
			notify:  make(chan struct{}, 1),
		}
		var sc sched.Scheduler
		if i < len(scheds) {
			sc = scheds[i]
		} else {
			rp.decode = disagg.NewDecodeScheduler(cfg.MaxDecodeBatch)
			sc = rp.decode
		}
		rp.core = replica.NewCore(cfg.Model, sc, kv, replica.CoreOptions{
			Index: s.prefixIdx, Slot: i, ImportBandwidth: cfg.KVTransferBandwidth,
		})
		if i < s.prefillReps {
			rp.pending = make(map[uint64]pendingHandoff, 64)
		}
		s.reps = append(s.reps, rp)
	}
	s.wg.Add(len(s.reps))
	for _, rp := range s.reps {
		go rp.run()
	}
	return s, nil
}

// maxDecodeTokens bounds a submission's declared output length so stream
// buffers stay sane.
const maxDecodeTokens = 4096

// strictestTBT is the tightest inter-token SLO among the interactive
// classes — the TBT a disagg decode tier must sustain — or 50 ms when no
// class is interactive.
func strictestTBT(classes []qos.Class) sim.Time {
	tbt := sim.Time(0)
	for _, c := range classes {
		if c.Kind == qos.Interactive && (tbt == 0 || c.SLO.TBT < tbt) {
			tbt = c.SLO.TBT
		}
	}
	if tbt == 0 {
		return 50 * sim.Millisecond
	}
	return tbt
}

// vnow is the current virtual time. The wall-clock origin and timescale are
// immutable after New, so no lock is needed.
func (s *Server) vnow() sim.Time {
	return sim.Time(float64(time.Since(s.start)) * s.cfg.Timescale)
}

// Replicas is the number of serving loops.
func (s *Server) Replicas() int { return len(s.reps) }

// PrefillReplicas is the prefill-tier size after defaulting: zero in
// colocated mode, at least one in disagg mode.
func (s *Server) PrefillReplicas() int { return s.prefillReps }

// Submission describes one request.
type Submission struct {
	App          string
	Class        string
	Priority     qos.Priority
	PromptTokens int
	DecodeTokens int
	// PrefixHashes is the prompt's prefix hash chain (see
	// kvcache.ExtendChain); nil when the prompt shares no prefix. Chains
	// longer than the prompt's shareable blocks are truncated. The hashes
	// are copied — the caller keeps ownership of the slice.
	PrefixHashes []uint64
}

// Submit enqueues a request and returns its token stream. Validation
// failures are *SubmissionError; submitting to a closed server returns
// ErrClosed. Submit takes only the routed replica's admission lock — it
// never contends with planning, token accounting, or other replicas.
func (s *Server) Submit(sub Submission) (*Stream, error) {
	st := &Stream{}
	if err := s.SubmitTo(sub, st); err != nil {
		return nil, err
	}
	return st, nil
}

// SubmitTo is Submit into a caller-owned Stream, which is overwritten:
// submission loops that recycle their Stream (the load generator, the
// gateway benchmarks) stay allocation-free end to end.
// The Stream must not be in use by a previous request.
func (s *Server) SubmitTo(sub Submission, st *Stream) error {
	cls, ok := s.classes[sub.Class]
	if !ok {
		return &SubmissionError{Field: "class", Msg: fmt.Sprintf("unknown class %q", sub.Class)}
	}
	if sub.PromptTokens <= 0 {
		return &SubmissionError{Field: "prompt_tokens", Msg: fmt.Sprintf("%d, must be positive", sub.PromptTokens)}
	}
	if sub.DecodeTokens <= 0 || sub.DecodeTokens > maxDecodeTokens {
		return &SubmissionError{Field: "decode_tokens",
			Msg: fmt.Sprintf("%d outside [1,%d]", sub.DecodeTokens, maxDecodeTokens)}
	}
	// Every replica's cache has the same size, so one core answers for all.
	if c := s.reps[0].core; !c.Fits(sub.PromptTokens + sub.DecodeTokens) {
		return &SubmissionError{Field: "prompt_tokens", Msg: fmt.Sprintf("%d prompt + %d decode tokens exceed the %d-token KV cache",
			sub.PromptTokens, sub.DecodeTokens, c.Capacity())}
	}
	app := sub.App
	if app == "" {
		app = sub.Class
	}
	if s.closed.Load() {
		return ErrClosed
	}

	chain := sub.PrefixHashes
	if max := kvcache.ChainBlocks(sub.PromptTokens, s.kvBlockTokens); len(chain) > max {
		chain = chain[:max]
	}
	req := s.newRequest()
	hashes := append(req.PrefixHashes[:0], chain...)
	*req = request.Request{
		ID:           s.nextID.Add(1),
		App:          app,
		Class:        cls,
		Priority:     sub.Priority,
		Arrival:      s.vnow(),
		PromptTokens: sub.PromptTokens,
		DecodeTokens: sub.DecodeTokens,
	}
	req.PrefixHashes = hashes
	id := req.ID

	entry := s.newEntry()
	entry.id = id
	entry.req = req
	entry.staged = s.newFrame()

	// The request must be reachable by the metrics ledger before any
	// serving loop can finish it (finalizeDone moves it live -> ledger).
	s.finMu.Lock()
	s.live[id] = req
	s.finMu.Unlock()

	if s.prefillReps > 0 {
		return s.submitDisagg(req, entry, st)
	}

	pi := s.pick(req)
	rp := s.reps[pi]
	xfer := s.planTransfer(req, pi, len(s.reps))
	rp.load.Add(1)
	rp.snapQueued.Add(1)
	rp.snapPrefill.Add(int64(req.PromptTokens))
	s.inFlight.Add(1)
	rp.inboxMu.Lock()
	if s.closed.Load() {
		rp.inboxMu.Unlock()
		rp.load.Add(-1)
		rp.snapQueued.Add(-1)
		rp.snapPrefill.Add(-int64(req.PromptTokens))
		s.inFlight.Add(-1)
		s.finMu.Lock()
		delete(s.live, id)
		s.finMu.Unlock()
		s.releaseUnused(req, entry)
		return ErrClosed
	}
	rp.inbox = append(rp.inbox, admission{req: req, entry: entry, xfer: xfer})
	rp.inboxMu.Unlock()
	rp.kick()
	s.accepted.Add(1)

	// After the kick the request may complete and be recycled at any
	// moment; only the entry pointer and captured id are safe to touch.
	*st = Stream{ID: id, srv: s, entry: entry}
	return nil
}

// pick routes a submission to a replica index. Snapshot-aware balancers
// score each replica's live queue state against the request's shape;
// prefix routers probe each replica's prefix cache; everything else sees
// only the load counts.
func (s *Server) pick(req *request.Request) int {
	i := s.pickOver(len(s.reps), req, req.DecodeTokens)
	if i >= 0 && i < len(s.reps) {
		return i
	}
	return 0
}

// pickOver runs the configured balancer over the first n replicas for a
// request expecting decodeTokens output tokens. Prefix probes read the
// global index's epoch-stamped membership snapshots — no replica cache
// lock is taken on this path.
func (s *Server) pickOver(n int, req *request.Request, decodeTokens int) int {
	if n == 1 {
		return 0
	}
	chain := req.PrefixHashes
	if sb, ok := s.balancer.(cluster.SnapshotBalancer); ok {
		if pb, ok := s.balancer.(cluster.PrefixSnapshotBalancer); ok && len(chain) > 0 {
			return pb.PickPrefixPredicted(n, s.loadOf, s.snapOf, s.indexMatch(chain), req.PromptTokens, decodeTokens)
		}
		return sb.PickPredicted(n, s.loadOf, s.snapOf, req.PromptTokens, decodeTokens)
	}
	if pr, ok := s.balancer.(cluster.PrefixRouter); ok && len(chain) > 0 {
		return pr.PickPrefix(n, s.loadOf, s.indexMatch(chain))
	}
	return s.balancer.PickIndex(n, s.loadOf)
}

// indexMatch is a routing match probe over the global prefix index.
func (s *Server) indexMatch(chain []uint64) func(int) int {
	return func(j int) int { return s.prefixIdx.MatchTokens(j, chain) }
}

// planTransfer decides at enqueue whether the chosen replica should import
// the request's cached prefix from another replica instead of recomputing
// it: it returns the source, the total prefix tokens to credit after the
// import, and the virtual time now, when the transfer starts; the zero
// plan means recompute. tierN bounds the index scan to the replicas that
// can hold the prefix (the prefill tier in disagg mode). The plan is
// advisory — the index may be stale — so admit re-validates the source's
// liveness and coverage before charging the interconnect, falling back to
// recompute.
func (s *Server) planTransfer(req *request.Request, chosen, tierN int) transferPlan {
	if s.cfg.KVTransferBandwidth <= 0 || len(req.PrefixHashes) == 0 {
		return transferPlan{}
	}
	holder, best := s.prefixIdx.BestMatch(tierN, req.PrefixHashes)
	if holder < 0 || holder == chosen {
		return transferPlan{}
	}
	if best > req.PromptTokens-1 {
		best = req.PromptTokens - 1
	}
	local := s.prefixIdx.MatchTokens(chosen, req.PrefixHashes)
	moved := best - local
	if moved < cluster.DefaultMinMatchTokens {
		return transferPlan{}
	}
	// Migrate only when the interconnect beats recomputing the moved tokens
	// as a single prefill chunk — conservative toward recompute, since real
	// chunked prefill pays per-iteration overhead on top.
	recompute := s.cfg.Model.BatchTime(model.BatchShape{
		Prefill: []model.ChunkShape{{Tokens: moved, CtxStart: local}},
	}).Seconds()
	if s.reps[chosen].core.ImportSeconds(moved) >= recompute {
		return transferPlan{}
	}
	return transferPlan{from: holder, tokens: best, at: s.vnow()}
}

// transferableMatch re-validates a planned KV import source at admission:
// the chain coverage it currently advertises, or 0 when it is down or out
// of range.
func (s *Server) transferableMatch(src int, chain []uint64) int {
	if src < 0 || src >= len(s.reps) || s.reps[src].down.Load() {
		return 0
	}
	return s.prefixIdx.MatchTokens(src, chain)
}

// run is one replica's serving loop, the wall-clock driver of its
// replica.Core: admit the inbox, plan a batch under mu, sleep its priced
// time (scaled by Timescale, no lock held), account it under mu, then free
// KV, freeze finished outcomes and deliver frames. A disagg decode-tier
// replica runs the same loop over its FCFS decode scheduler.
func (rp *gatewayReplica) run() {
	defer rp.srv.wg.Done()
	for {
		if !rp.admit() {
			if rp.down.Load() {
				rp.crashDrain()
			}
			return
		}
		now := rp.srv.vnow()
		rp.mu.Lock()
		batch := rp.core.Plan(now)
		rp.mu.Unlock()

		if batch.Empty() {
			if rp.active > 0 {
				// Pending work but nothing runnable this instant (can happen
				// transiently with admission-style schedulers); park until a
				// kick or the coarse fallback tick instead of busy-polling.
				rp.idleWait()
			}
			continue
		}

		// Warm prefixes promoted from DRAM since the last iteration pay
		// their reload here, serializing with compute. Prefix KV imported
		// from another replica has been in flight since its request was
		// enqueued; the batch waits only for what is left of it.
		exec, debt, stall := rp.core.Price(batch, now)
		if stall > 0 {
			rp.srv.importStall.Add(int64(stall))
		}
		time.Sleep(time.Duration(float64((exec + debt).Duration()) / rp.srv.cfg.Timescale))

		rp.mu.Lock()
		end := rp.srv.vnow()
		rp.completeLocked(batch, exec, end)
		rp.mu.Unlock()
		rp.finishIteration(end)
		if len(rp.handoffQ) > 0 {
			rp.launchHandoffs()
		}
		if rp.active == 0 {
			// Idle replica: retire the decode-batch gauges so balancers do
			// not score work that drained (the queued gauges net to zero by
			// their own bookkeeping).
			rp.snapDecodes.Store(0)
			rp.snapSumCtx.Store(0)
			rp.snapMaxCtx.Store(0)
			rp.maybeShrinkStreams()
		}
	}
}

// admit blocks until this replica has work (or the server closes or this
// replica crashes), then drains the inbox into the core in one swap. It
// returns false when the loop should stop.
func (rp *gatewayReplica) admit() bool {
	rp.inboxMu.Lock()
	for !rp.srv.closed.Load() && !rp.down.Load() && len(rp.inbox) == 0 && rp.active == 0 {
		// Park on the wakeup channel. The predicate is re-checked under
		// inboxMu after every receive, so a kick that lands between the
		// unlock and the receive is never lost (kick's buffered send
		// sticks) and a spurious wake is harmless.
		rp.inboxMu.Unlock()
		<-rp.notify
		rp.inboxMu.Lock()
	}
	if rp.srv.closed.Load() || rp.down.Load() {
		rp.inboxMu.Unlock()
		return false
	}
	rp.inbox, rp.drained = rp.drained[:0], rp.inbox
	rp.inboxMu.Unlock()

	if len(rp.drained) == 0 {
		return true
	}
	// The core pins shared prefixes before the scheduler sees the
	// requests: matched tokens are credited as already prefilled and DRAM
	// promotions accrue debt for the next iteration's sleep. Planned
	// cross-replica imports are re-validated here — the source may have
	// crashed or evicted since submission — and credited like local hits;
	// each transfer runs from its enqueue on the replica's inbound link.
	// Handoffs arriving at a decode-tier replica instead emit their first
	// token on admission.
	srv := rp.srv
	var hitCredit, moveCredit, reloadCredit, fallbacks int64
	var importTime sim.Time
	now := srv.vnow()
	rp.mu.Lock()
	rp.kvMu.Lock()
	for _, ad := range rp.drained {
		if ad.orig != nil {
			// Disagg prefill clone: no stream here — its completion hands
			// the original off to the decode tier instead.
			rp.pending[ad.req.ID] = pendingHandoff{clone: ad.req, orig: ad.orig, entry: ad.entry, home: ad.home}
		} else {
			rp.streams[ad.req.ID] = ad.entry
			if len(rp.streams) > rp.streamsPeak {
				rp.streamsPeak = len(rp.streams)
			}
		}
		if rp.decode != nil {
			rp.core.AdmitHandoff(ad.req, now, rp)
			continue
		}
		peer := 0
		if ad.xfer.tokens > 0 {
			peer = min(ad.xfer.tokens, srv.transferableMatch(ad.xfer.from, ad.req.PrefixHashes))
		}
		a := rp.core.Admit(ad.req, now, peer, ad.xfer.at)
		hitCredit += int64(a.Hit)
		moveCredit += int64(a.Imported)
		reloadCredit += int64(a.Reloaded)
		importTime += a.ImportTime
		if a.Imported == 0 && ad.xfer.tokens > a.Hit {
			// Source gone: recompute instead. Never a silent drop — the
			// request simply keeps its full prefill work.
			fallbacks++
		}
	}
	rp.core.Publish()
	rp.kvMu.Unlock()
	if rp.decode != nil {
		rp.publishDecodeLoad()
	}
	rp.mu.Unlock()
	rp.active += len(rp.drained)
	for i := range rp.drained {
		rp.drained[i] = admission{} // release references, keep capacity
	}
	// Counter and snapshot publication is batched to one update per admit
	// cycle: the per-request Adds used to dominate the lock hold time on
	// bursty admission.
	if hitCredit > 0 {
		srv.prefixHits.Add(uint64(hitCredit))
		rp.snapPrefill.Add(-hitCredit)
	}
	if moveCredit > 0 {
		srv.prefixTransferTokens.Add(uint64(moveCredit))
		srv.importTime.Add(int64(importTime))
	}
	if reloadCredit > 0 {
		srv.reloadTokens.Add(uint64(reloadCredit))
	}
	if fallbacks > 0 {
		srv.transferFallbacks.Add(uint64(fallbacks))
	}
	if rp.decode != nil {
		// Handoffs stamped their first token (TTFT: queueing, prefill and
		// transfer all elapsed); deliver it in this same pass.
		rp.finishIteration(now)
	}
	return true
}

// completeLocked performs the post-execution phase of one iteration:
// lifetime counters, the histogram shard, the core's token accounting
// (which stages events into the streams' frames through Token), and the
// load gauges. No channel operation happens here — flushFrames delivers
// after mu is released — and the steady state allocates nothing
// (TestServeSteadyStateAllocFree).
//
//qoserve:hotpath
//qoserve:locked mu
func (rp *gatewayReplica) completeLocked(b sched.Batch, exec, end sim.Time) {
	srv := rp.srv
	pt := b.PrefillTokens()
	srv.iterations.Add(1)
	srv.tokens.Add(uint64(b.NewTokens()))
	srv.prefillTokens.Add(uint64(pt))
	srv.decodeTokens.Add(uint64(len(b.Decodes)))
	rp.hist.observe(exec.Seconds())
	rp.tally = loadTally{}
	rp.core.Complete(b, end, rp)
	// Load-snapshot publication is batched: one update per gauge per
	// iteration instead of one per request.
	if pt > 0 {
		rp.snapPrefill.Add(-int64(pt))
		rp.snapChunk.Store(int64(pt))
	}
	if rp.tally.queued != 0 {
		rp.snapQueued.Add(-rp.tally.queued)
	}
	if rp.decode != nil {
		rp.publishDecodeLoad()
		return
	}
	rp.snapDecodes.Store(int64(rp.tally.decodes))
	rp.snapSumCtx.Store(int64(rp.tally.sumCtx))
	rp.snapMaxCtx.Store(int64(rp.tally.maxCtx))
}

// Token implements replica.Delivery: it tallies the token's effect on the
// load gauges, then stages it into its stream's frame — or, for a disagg
// prefill clone's one token, queues the original's handoff to its decode
// home instead.
//
//qoserve:hotpath
//qoserve:locked mu
func (rp *gatewayReplica) Token(r *request.Request, at sim.Time, done bool) {
	if r.DecodedTokens == 1 {
		rp.tally.queued++ // left the prefill queue
	}
	if !done {
		c := r.ContextLen()
		rp.tally.decodes++
		rp.tally.sumCtx += c
		rp.tally.maxCtx = max(rp.tally.maxCtx, c)
	}
	if h, ok := rp.pending[r.ID]; ok {
		rp.handoffQ = append(rp.handoffQ, h)
		return
	}
	rp.stageEvent(r, at)
}

// publishDecodeLoad stores a decode-tier replica's whole queue — running
// and waiting — in the decode gauges: pickDecodeHome scores it, and
// operators read it on /debug/load.
//
//qoserve:hotpath
//qoserve:locked mu
func (rp *gatewayReplica) publishDecodeLoad() {
	n, sum, maxCtx := rp.decode.Load()
	rp.snapDecodes.Store(int64(n))
	rp.snapSumCtx.Store(int64(sum))
	rp.snapMaxCtx.Store(int64(maxCtx))
}

// stageEvent queues the request's newest token for delivery after mu is
// released by appending it to the entry's staged frame (evicting the
// oldest staged event when the frame is full and the final token must
// fit).
//
//qoserve:hotpath
//qoserve:locked mu
func (rp *gatewayReplica) stageEvent(r *request.Request, at sim.Time) {
	e := rp.streams[r.ID]
	if e == nil {
		return
	}
	done := r.Phase() == request.Done
	ev := Event{Token: r.DecodedTokens, At: at.Duration(), Done: done}
	if len(e.staged) < cap(e.staged) {
		e.staged = append(e.staged, ev)
	} else if done {
		rp.srv.droppedEvents.Add(1)
		copy(e.staged, e.staged[1:])
		e.staged[len(e.staged)-1] = ev
	} else {
		rp.srv.droppedEvents.Add(1)
	}
	if done {
		e.final = true
		rp.finalQ = append(rp.finalQ, e)
	}
	if !e.queued {
		e.queued = true
		rp.sendQ = append(rp.sendQ, e)
	}
}

// Stats is a snapshot of server health.
type Stats struct {
	VirtualNow    time.Duration
	Pending       int
	Served        int
	Iterations    uint64
	Tokens        uint64
	ViolationRate float64
	// DroppedEvents counts token events discarded on full stream buffers.
	DroppedEvents uint64
	// Replicas is the number of serving loops.
	Replicas int
}

// Stats snapshots current counters and the violation rate over all
// requests seen so far.
func (s *Server) Stats() Stats {
	vnow := s.vnow()
	return Stats{
		VirtualNow:    vnow.Duration(),
		Pending:       int(s.inFlight.Load()),
		Served:        int(s.accepted.Load()),
		Iterations:    s.iterations.Load(),
		Tokens:        s.tokens.Load(),
		ViolationRate: s.outcomes(vnow).total().ViolationRate(),
		DroppedEvents: s.droppedEvents.Load(),
		Replicas:      len(s.reps),
	}
}

// outcomes reads every accepted request's outcome: the finished ledger
// plus a consistent scan of the live set. It takes every replica's
// scheduler lock (in index order) so live request state cannot mutate
// mid-scan, then finMu (a leaf lock) so no request retires or recycles
// during the read; only /metrics and /v1/stats call it, and the stall
// they cause is bounded by the metrics window's traffic, not by lifetime
// traffic.
func (s *Server) outcomes(vnow sim.Time) outcomeView {
	for _, rp := range s.reps {
		rp.mu.Lock()
	}
	s.finMu.Lock()
	v := s.ledger.view(vnow, s.live, len(s.reps))
	s.finMu.Unlock()
	for i := len(s.reps) - 1; i >= 0; i-- {
		s.reps[i].mu.Unlock()
	}
	return v
}

// DroppedEvents is the number of token events discarded on full stream
// buffers since start.
func (s *Server) DroppedEvents() uint64 { return s.droppedEvents.Load() }

// KVStats aggregates prefix-cache statistics across the serving loops.
type KVStats struct {
	// PrefixHitTokens is prompt tokens served from cached prefixes.
	PrefixHitTokens uint64
	// ReloadTokens is the subset of hits promoted from the DRAM tier.
	ReloadTokens uint64
	// Demotions counts HBM -> DRAM block moves under pressure.
	Demotions uint64
	// HBMEvictions / DRAMEvictions count blocks dropped from each tier.
	HBMEvictions  uint64
	DRAMEvictions uint64
	// CachedHBMBlocks / CachedDRAMBlocks are currently resident blocks.
	CachedHBMBlocks  int
	CachedDRAMBlocks int
	// PrefixTransferTokens is hit tokens whose KV was imported from
	// another replica's cache over the interconnect instead of recomputed.
	PrefixTransferTokens uint64
	// TransferFallbacks counts planned imports abandoned at admission
	// (source crashed or evicted its blocks) and served by recompute.
	TransferFallbacks uint64
	// ImportSeconds is the virtual time those imports occupied the
	// destinations' inbound links; ImportStallSeconds is the part of it
	// that batches waited for, the rest overlapping queueing and compute.
	ImportSeconds      float64
	ImportStallSeconds float64
}

// KVStats snapshots the prefix caches, probing each replica in turn.
func (s *Server) KVStats() KVStats {
	st := KVStats{
		PrefixHitTokens:      s.prefixHits.Load(),
		ReloadTokens:         s.reloadTokens.Load(),
		PrefixTransferTokens: s.prefixTransferTokens.Load(),
		TransferFallbacks:    s.transferFallbacks.Load(),
		ImportSeconds:        sim.Time(s.importTime.Load()).Seconds(),
		ImportStallSeconds:   sim.Time(s.importStall.Load()).Seconds(),
	}
	for _, rp := range s.reps {
		rp.kvMu.Lock()
		kv := rp.core.KV()
		h, d := kv.CachedBlocks()
		st.CachedHBMBlocks += h
		st.CachedDRAMBlocks += d
		hb, db := kv.TierEvictions()
		st.HBMEvictions += hb
		st.DRAMEvictions += db
		st.Demotions += kv.Demotions()
		rp.kvMu.Unlock()
	}
	return st
}

// Trace returns the live iteration trace ring, or nil when tracing is
// disabled (Config.TraceDepth == 0).
func (s *Server) Trace() *trace.Ring { return s.tracer }

// QueueDepths is a live snapshot of scheduler queues, summed over replicas.
type QueueDepths struct {
	Main      int
	Relegated int
	Decode    int
	// Reported is false when the schedulers do not implement
	// sched.QueueReporter; the depth fields are then zero.
	Reported bool
}

// Queues snapshots the schedulers' queue depths, summed across replicas.
func (s *Server) Queues() QueueDepths {
	d := QueueDepths{Reported: true}
	for _, rp := range s.reps {
		rq, ok := rp.queues()
		if !ok {
			return QueueDepths{}
		}
		d.Main += rq.Main
		d.Relegated += rq.Relegated
		d.Decode += rq.Decode
	}
	return d
}

// queues reads one replica's queue depths under its scheduler lock.
func (rp *gatewayReplica) queues() (QueueDepths, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	qr, ok := rp.core.Scheduler().(sched.QueueReporter)
	if !ok {
		return QueueDepths{}, false
	}
	d := QueueDepths{Reported: true}
	d.Main, d.Relegated, d.Decode = qr.QueueLen()
	return d, true
}

// policyName is the scheduling policy name (identical on every replica).
func (s *Server) policyName() string {
	rp := s.reps[0]
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.core.Scheduler().Name()
}

// relegations sums eager-relegation counts over replicas; reported is
// false when no scheduler exposes them.
func (s *Server) relegations() (total int, reported bool) {
	for _, rp := range s.reps {
		rp.mu.Lock()
		if rc, ok := rp.core.Scheduler().(interface{ Relegations() int }); ok {
			total += rc.Relegations()
			reported = true
		}
		rp.mu.Unlock()
	}
	return total, reported
}

// Drain blocks until every accepted request has finished or the context is
// cancelled. Serving loops kick drainWake when inFlight reaches zero, so
// the common case wakes immediately; a coarse backstop tick covers the
// race where a request is submitted between the load and the park.
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.inFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.drainWake:
		case <-tick.C:
		}
	}
}

// Close stops the serving loops. In-flight streams stop receiving events.
func (s *Server) Close() {
	if !s.closed.Swap(true) {
		for _, rp := range s.reps {
			rp.kick()
		}
	}
	s.wg.Wait()
}
