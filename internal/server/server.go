// Package server runs QoServe schedulers in real time: wall-clock serving
// loops that execute the same iteration cycle as the simulator — plan batch,
// "execute" for the cost-model duration, account tokens — and stream token
// events to concurrent clients.
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
// events are staged under the lock and delivered afterwards with
// non-blocking sends — per token in the default mode, or coalesced into
// per-iteration event frames when Config.EventFrame is set (see
// stream.go). Slow consumers lose intermediate token events (counted in
// qoserve_stream_dropped_events_total) but never the final one, so the
// batch loop can never be stalled by a client. Idle loops park on a
// 1-buffered notify channel kicked by admission, fault recovery, handoff
// delivery, and Close — no polling. Lifetime counters are atomics; the
// steady-state per-token path allocates nothing, and with event frames
// enabled the request, stream-entry, and frame objects recycle through
// free lists so a warm gateway serves without allocating at all.
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
	"qoserve/internal/metrics"
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
	// Scheduler serves the requests on a single-replica server; it must
	// not be shared. Mutually exclusive with SchedulerFactory.
	Scheduler sched.Scheduler
	// SchedulerFactory builds one independent scheduler per replica; it is
	// required when Replicas > 1 (each serving loop must own its policy
	// state) and may also be used for a single replica.
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
	// GlobalPrefixIndex publishes every replica's prefix-cache membership
	// into a lock-free global index (kvcache.GlobalIndex) that routing
	// probes instead of taking per-replica cache locks. Implied by a
	// positive KVTransferBandwidth.
	GlobalPrefixIndex bool
	// KVTransferBandwidth enables cross-replica KV migration: when another
	// replica holds a longer cached prefix than the routed one, the missing
	// blocks move over an interconnect of this many bytes per second of
	// virtual time instead of being recomputed — if the modeled transfer is
	// cheaper than the prefill it saves. Zero disables migration. Valid in
	// both modes; distinct from TransferBandwidth, the disagg
	// prefill->decode handoff fabric.
	KVTransferBandwidth float64
	// StreamBuffer bounds each stream's event buffer (default 256 events,
	// additionally capped at the request's DecodeTokens+1). See Stream for
	// the overflow contract. With EventFrame set it only sizes the derived
	// FrameBuffer default.
	StreamBuffer int
	// EventFrame switches the gateway to batched event delivery: all
	// tokens a stream produced in one iteration coalesce into a single
	// pooled frame of up to this many events, delivered over a small
	// bounded channel, and the per-request Request/entry/frame objects
	// recycle through free lists. Zero (the default) keeps the original
	// per-token channel contract on Stream.Events; Stream.Recv works in
	// both modes. See stream.go for the frame lifecycle.
	EventFrame int
	// FrameBuffer is each stream's frame-channel depth in batched mode
	// (default max(2, StreamBuffer/EventFrame)). A consumer that falls
	// this many frames behind loses the oldest ones. Requires EventFrame.
	FrameBuffer int
	// Classes that submissions may reference.
	Classes []qos.Class
	// Timescale accelerates virtual time relative to wall time (e.g.
	// 100 means a 50 ms iteration sleeps 0.5 ms). Default 1.
	Timescale float64
	// MaxDecodeTokens bounds a submission's declared output length
	// (default 4096) so stream buffers stay sane.
	MaxDecodeTokens int
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
	// FaultStatus, when non-nil, supplies replica health and recovery
	// counters for GET /metrics (replica up/down gauges, retry and
	// lost-work counters). Wire it to a cluster's fault state — e.g.
	// bridge Cluster.Health() and Cluster.FaultStats() — or leave nil for
	// servers without fault injection, which then omit the fault series.
	FaultStatus func() FaultStatus

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
	// derives the largest batch whose iteration time stays under
	// StrictestTBT from the cost model (disagg.DeriveDecodeBatch).
	MaxDecodeBatch int
	// StrictestTBT is the tightest inter-token SLO the decode tier must
	// sustain, used to derive MaxDecodeBatch (default 50ms). Disagg only.
	StrictestTBT time.Duration
	// TransferBandwidth is the prefill->decode KV interconnect in bytes
	// per second of virtual time (default 64 GB/s, an NVLink-class
	// fabric). Disagg only.
	TransferBandwidth float64
}

// ReplicaHealth is one replica's liveness as exposed on /metrics.
type ReplicaHealth struct {
	Up         bool
	Crashes    uint64
	Restarts   uint64
	SlowFactor float64
}

// FaultStatus carries failure and recovery state for /metrics.
type FaultStatus struct {
	// Replicas is per-replica health, indexed by replica number.
	Replicas []ReplicaHealth
	// Retries counts request re-enqueues after replica crashes.
	Retries uint64
	// LostTokens is the total tokens of progress discarded by crashes.
	LostTokens uint64
	// FailedRequests counts requests permanently failed with a reason.
	FailedRequests int
	// Parked counts requests currently waiting for any healthy replica.
	Parked int
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
	prefillReps    int
	maxDecodeBatch int

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
	// membership into; nil unless Config.GlobalPrefixIndex or a positive
	// Config.KVTransferBandwidth enabled it. Entries can be stale (a
	// crashed replica keeps its last publication) — consumers re-validate
	// liveness before acting on a hit.
	prefixIdx *kvcache.GlobalIndex
	// xferBytesPerToken is the served model's KV footprint per token,
	// cached for transfer pricing. Immutable after New.
	xferBytesPerToken float64
	// kvBlockTokens is the prefix-cache block size every replica shares,
	// read once so submissions never take a replica's kvMu for it.
	// Immutable after New.
	kvBlockTokens int

	prefixTransferTokens atomic.Uint64 // hit tokens imported across replicas
	transferFallbacks    atomic.Uint64 // planned imports abandoned at admission

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
	finMu   sync.Mutex
	live    map[uint64]*request.Request // guarded by finMu
	doneOut []metrics.Outcome           // guarded by finMu

	// frameBuf is the per-stream frame-channel depth; 0 means unbatched
	// delivery. Immutable after New.
	frameBuf int
	// Free lists for batched mode (nil otherwise): recycled requests,
	// stream entries, and event frames. See stream.go.
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

// gatewayReplica is one serving loop: its own scheduler, admission inbox,
// stream table, and histogram shard. The two mutexes split the old global
// server lock — submitters only ever touch inboxMu, metrics readers only
// mu — so admission, planning, and observability no longer contend on one
// word.
type gatewayReplica struct {
	srv *Server
	idx int

	// mu is the scheduler lock: it guards planning, token accounting, and
	// queue introspection. It is never held across a sleep or a channel
	// operation.
	mu        sync.Mutex
	scheduler sched.Scheduler // guarded by mu

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

	// kvMu guards the prefix cache. Submitters probe it for routing
	// affinity; the serving loop pins prefixes at admission and unpins on
	// completion. Lock order: mu may be taken before kvMu, never after.
	kvMu sync.Mutex
	kv   *kvcache.Manager // guarded by kvMu

	// reloadDebt is DRAM->HBM transfer time owed by prefix promotions,
	// added to the next iteration's sleep. Loop-owned.
	reloadDebt time.Duration
	// transferDebt is cross-replica KV import time owed by admitted
	// migrations, charged exactly like reloadDebt. Loop-owned.
	transferDebt time.Duration
	// idxVersion is the kv membership version last published to the global
	// index. Guarded by kvMu.
	idxVersion uint64

	// Loop-owned state, touched only by the serving goroutine.
	drained     []admission             // inbox swap buffer
	streams     map[uint64]*streamEntry // live streams by request ID
	streamsPeak int                     // high-water mark since last shrink
	outbox      []delivery              // unbatched: events staged under mu
	sendQ       []*streamEntry          // batched: entries with staged frames
	finalQ      []*streamEntry          // streams finished this iteration
	releaseQ    []uint64                // prefix pins released this iteration
	spares      [][]Event               // pre-stocked frames for flushFrames
	idleTimer   *time.Timer             // idleWait's reusable fallback timer
	active      int                     // requests admitted here and unfinished
	shape       model.BatchShape        // batch-shape scratch for the cost model
	hist        histShard               // iteration-latency histogram shard
	handoffQ    []pendingHandoff        // clones finished this iteration, to launch
	decQ        []*request.Request      // decode-tier FCFS queue
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
	// xferFrom/xferTokens carry a planned cross-replica KV import: credit
	// xferTokens of the prefix by migrating the missing blocks from replica
	// xferFrom. Zero xferTokens means no import was planned; the plan is
	// re-validated at admission (see planTransfer).
	xferFrom   int
	xferTokens int
}

// pendingHandoff is one request whose prompt is prefilling on this tier as
// a single-token clone, awaiting KV transfer to its fixed decode home.
type pendingHandoff struct {
	clone *request.Request
	orig  *request.Request
	entry *streamEntry
	home  int // decode-tier replica index, fixed at submission
}

// delivery is one staged stream write, assembled under the scheduler lock
// and sent after it is released.
type delivery struct {
	events chan Event
	ev     Event
	id     uint64 // stream to retire when ev.Done
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
	if cfg.Scheduler != nil && cfg.SchedulerFactory != nil {
		return nil, fmt.Errorf("server: both Scheduler and SchedulerFactory set")
	}
	scheds := make([]sched.Scheduler, cfg.Replicas)
	switch {
	case cfg.SchedulerFactory != nil:
		for i := range scheds {
			if scheds[i] = cfg.SchedulerFactory(); scheds[i] == nil {
				return nil, fmt.Errorf("server: SchedulerFactory returned nil")
			}
		}
	case cfg.Scheduler != nil:
		if cfg.Replicas > 1 {
			return nil, fmt.Errorf("server: %d replicas require SchedulerFactory (schedulers must not be shared)", cfg.Replicas)
		}
		scheds[0] = cfg.Scheduler
	default:
		return nil, fmt.Errorf("server: nil scheduler")
	}
	if cfg.Timescale == 0 {
		cfg.Timescale = 1
	}
	if cfg.Timescale < 0 {
		return nil, fmt.Errorf("server: negative timescale")
	}
	if cfg.MaxDecodeTokens == 0 {
		cfg.MaxDecodeTokens = 4096
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = 256
	}
	if cfg.StreamBuffer < 0 {
		return nil, fmt.Errorf("server: negative stream buffer")
	}
	if cfg.EventFrame < 0 {
		return nil, fmt.Errorf("server: negative event frame size")
	}
	if cfg.FrameBuffer < 0 {
		return nil, fmt.Errorf("server: negative frame buffer")
	}
	if cfg.FrameBuffer > 0 && cfg.EventFrame == 0 {
		return nil, fmt.Errorf("server: FrameBuffer requires EventFrame")
	}
	if cfg.EventFrame > 0 && cfg.FrameBuffer == 0 {
		cfg.FrameBuffer = cfg.StreamBuffer / cfg.EventFrame
		if cfg.FrameBuffer < 2 {
			cfg.FrameBuffer = 2
		}
	}
	if cfg.TraceDepth < 0 {
		return nil, fmt.Errorf("server: negative trace depth")
	}
	if cfg.MetricsWindow == 0 {
		cfg.MetricsWindow = time.Minute
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
		if cfg.StrictestTBT == 0 {
			cfg.StrictestTBT = 50 * time.Millisecond
		}
		if cfg.StrictestTBT < 0 {
			return nil, fmt.Errorf("server: negative strictest TBT")
		}
		if cfg.TransferBandwidth == 0 {
			cfg.TransferBandwidth = 64e9
		}
		if cfg.TransferBandwidth < 0 {
			return nil, fmt.Errorf("server: negative transfer bandwidth")
		}
		if cfg.MaxDecodeBatch == 0 {
			cfg.MaxDecodeBatch = disagg.DeriveDecodeBatch(cfg.Model, sim.FromDuration(cfg.StrictestTBT), 2048)
		}
		if cfg.MaxDecodeBatch < 1 {
			return nil, fmt.Errorf("server: decode batch cap %d", cfg.MaxDecodeBatch)
		}
	default:
		return nil, fmt.Errorf("server: unknown mode %q (want \"colocated\" or \"disagg\")", cfg.Mode)
	}
	s := &Server{
		cfg:       cfg,
		classes:   make(map[string]qos.Class, len(cfg.Classes)),
		start:     time.Now(),
		balancer:  cfg.Balancer,
		live:      make(map[uint64]*request.Request, 256),
		drainWake: make(chan struct{}, 1),
	}
	if cfg.EventFrame > 0 {
		s.frameBuf = cfg.FrameBuffer
		s.reqPool = make(chan *request.Request, poolCap)
		s.entryPool = make(chan *streamEntry, poolCap)
		s.framePool = make(chan []Event, poolCap)
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
	if cfg.GlobalPrefixIndex || cfg.KVTransferBandwidth > 0 {
		s.prefixIdx = kvcache.NewGlobalIndex(cfg.Replicas)
	}
	s.xferBytesPerToken = cfg.Model.Model.KVBytesPerToken()
	if cfg.Mode == "disagg" {
		s.prefillReps = cfg.PrefillReplicas
		s.maxDecodeBatch = cfg.MaxDecodeBatch
	}
	kvCfg := cfg.KV
	if kvCfg.CapacityTokens == 0 {
		kvCfg.CapacityTokens = cfg.Model.KVCapacityTokens()
	}
	for i, sc := range scheds {
		kv, err := kvcache.NewTiered(kvCfg)
		if err != nil {
			return nil, err
		}
		s.kvBlockTokens = kv.BlockTokens() // the same kvCfg for every replica
		rp := &gatewayReplica{
			srv:       s,
			idx:       i,
			scheduler: sc,
			streams:   make(map[uint64]*streamEntry, 64),
			notify:    make(chan struct{}, 1),
			kv:        kv,
		}
		if s.prefillReps > 0 && i < s.prefillReps {
			rp.pending = make(map[uint64]pendingHandoff, 64)
		}
		s.reps = append(s.reps, rp)
	}
	s.wg.Add(len(s.reps))
	for i, rp := range s.reps {
		if s.prefillReps > 0 && i >= s.prefillReps {
			go rp.runDecode()
		} else {
			go rp.run()
		}
	}
	return s, nil
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
// gateway benchmarks) stay allocation-free end to end in batched mode.
// The Stream must not be in use by a previous request.
func (s *Server) SubmitTo(sub Submission, st *Stream) error {
	cls, ok := s.classes[sub.Class]
	if !ok {
		return &SubmissionError{Field: "class", Msg: fmt.Sprintf("unknown class %q", sub.Class)}
	}
	if sub.PromptTokens <= 0 {
		return &SubmissionError{Field: "prompt_tokens", Msg: fmt.Sprintf("%d, must be positive", sub.PromptTokens)}
	}
	if sub.DecodeTokens <= 0 || sub.DecodeTokens > s.cfg.MaxDecodeTokens {
		return &SubmissionError{Field: "decode_tokens",
			Msg: fmt.Sprintf("%d outside [1,%d]", sub.DecodeTokens, s.cfg.MaxDecodeTokens)}
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

	var entry *streamEntry
	if s.frameBuf > 0 {
		entry = s.newEntry()
		entry.id = id
		entry.req = req
		entry.staged = s.newFrame()
	} else {
		buf := sub.DecodeTokens + 1
		if buf > s.cfg.StreamBuffer {
			buf = s.cfg.StreamBuffer
		}
		entry = &streamEntry{id: id, req: req, events: make(chan Event, buf)}
	}

	// The request must be reachable by the metrics ledger before any
	// serving loop can finish it (finalizeDone moves it live -> doneOut).
	s.finMu.Lock()
	s.live[id] = req
	s.finMu.Unlock()

	if s.prefillReps > 0 {
		return s.submitDisagg(req, entry, st)
	}

	pi := s.pick(req)
	rp := s.reps[pi]
	src, tok := s.planTransfer(req, pi, len(s.reps))
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
	rp.inbox = append(rp.inbox, admission{req: req, entry: entry, xferFrom: src, xferTokens: tok})
	rp.inboxMu.Unlock()
	rp.kick()
	s.accepted.Add(1)

	// After the kick the request may complete (and in batched mode be
	// recycled) at any moment; only the entry pointer and captured id are
	// safe to touch.
	*st = Stream{ID: id, srv: s}
	if entry.frames != nil {
		st.entry = entry
	} else {
		st.Events = entry.events
		st.req = req
		st.rep = rp
	}
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
// request expecting decodeTokens output tokens. With the global prefix
// index enabled, prefix probes read epoch-stamped membership snapshots —
// no replica cache lock is taken on this path.
func (s *Server) pickOver(n int, req *request.Request, decodeTokens int) int {
	if n == 1 {
		return 0
	}
	chain := req.PrefixHashes
	if sb, ok := s.balancer.(cluster.SnapshotBalancer); ok {
		if pb, ok := s.balancer.(cluster.PrefixSnapshotBalancer); ok && s.prefixIdx != nil && len(chain) > 0 {
			return pb.PickPrefixPredicted(n, s.loadOf, s.snapOf, s.indexMatch(chain), req.PromptTokens, decodeTokens)
		}
		return sb.PickPredicted(n, s.loadOf, s.snapOf, req.PromptTokens, decodeTokens)
	}
	if pr, ok := s.balancer.(cluster.PrefixRouter); ok && len(chain) > 0 {
		if s.prefixIdx != nil {
			return pr.PickPrefix(n, s.loadOf, s.indexMatch(chain))
		}
		return pr.PickPrefix(n, s.loadOf, func(j int) int {
			return s.reps[j].matchTokens(chain)
		})
	}
	return s.balancer.PickIndex(n, s.loadOf)
}

// indexMatch is a routing match probe over the global prefix index.
func (s *Server) indexMatch(chain []uint64) func(int) int {
	return func(j int) int { return s.prefixIdx.MatchTokens(j, chain) }
}

// transferSeconds prices moving tokens of cached KV between replicas over
// the configured interconnect, in virtual seconds.
func (s *Server) transferSeconds(tokens int) float64 {
	if tokens <= 0 || s.cfg.KVTransferBandwidth <= 0 {
		return 0
	}
	return float64(tokens) * s.xferBytesPerToken / s.cfg.KVTransferBandwidth
}

// planTransfer decides at submission whether the chosen replica should
// import the request's cached prefix from another replica instead of
// recomputing it: it returns the source and the total prefix tokens to
// credit after the import, or (-1, 0) to recompute. tierN bounds the index
// scan to the replicas that can hold the prefix (the prefill tier in
// disagg mode). The plan is advisory — the index may be stale — so admit
// re-validates the source's liveness and coverage before charging the
// interconnect, falling back to recompute.
func (s *Server) planTransfer(req *request.Request, chosen, tierN int) (src, tokens int) {
	if s.cfg.KVTransferBandwidth <= 0 || s.prefixIdx == nil || len(req.PrefixHashes) == 0 {
		return -1, 0
	}
	holder, best := s.prefixIdx.BestMatch(tierN, req.PrefixHashes)
	if holder < 0 || holder == chosen {
		return -1, 0
	}
	if best > req.PromptTokens-1 {
		best = req.PromptTokens - 1
	}
	local := s.prefixIdx.MatchTokens(chosen, req.PrefixHashes)
	moved := best - local
	if moved < cluster.DefaultMinMatchTokens {
		return -1, 0
	}
	// Migrate only when the interconnect beats recomputing the moved tokens
	// as a single prefill chunk — conservative toward recompute, since real
	// chunked prefill pays per-iteration overhead on top.
	recompute := s.cfg.Model.BatchTime(model.BatchShape{
		Prefill: []model.ChunkShape{{Tokens: moved, CtxStart: local}},
	}).Seconds()
	if s.transferSeconds(moved) >= recompute {
		return -1, 0
	}
	return holder, best
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

// matchTokens probes the replica's prefix cache for routing affinity. Only
// used when the global prefix index is disabled — with it, routing probes
// the index and never takes kvMu.
func (rp *gatewayReplica) matchTokens(chain []uint64) int {
	rp.kvMu.Lock()
	defer rp.kvMu.Unlock()
	return rp.kv.MatchTokens(chain)
}

// publishIndexLocked exports this replica's cache membership into the
// global prefix index when it changed since the last publication — warm
// steady-state traffic (pure re-pins) publishes nothing. Caller holds
// kvMu and has checked srv.prefixIdx != nil.
//
//qoserve:locked kvMu
func (rp *gatewayReplica) publishIndexLocked() {
	if v := rp.kv.IndexVersion(); v != rp.idxVersion {
		rp.srv.prefixIdx.Publish(rp.idx, rp.kv.ExportIndex())
		rp.idxVersion = v
	}
}

// run is one replica's serving iteration cycle.
func (rp *gatewayReplica) run() {
	defer rp.srv.wg.Done()
	for {
		if rp.down.Load() {
			rp.crashDrain()
			return
		}
		if !rp.admit() {
			if rp.down.Load() {
				rp.crashDrain()
			}
			return
		}
		now := rp.srv.vnow()
		rp.mu.Lock()
		batch := rp.scheduler.PlanBatch(now)
		rp.mu.Unlock()

		if batch.Empty() {
			// Pending work but nothing runnable this instant (can happen
			// transiently with admission-style schedulers); park until a
			// kick or the coarse fallback tick instead of busy-polling.
			rp.idleWait()
			continue
		}

		batch.ShapeInto(&rp.shape)
		exec := rp.srv.cfg.Model.BatchTime(rp.shape)
		wall := exec.Duration()
		if rp.reloadDebt > 0 {
			// Warm prefixes promoted from DRAM since the last iteration
			// pay their transfer here, serializing with compute.
			wall += rp.reloadDebt
			rp.reloadDebt = 0
		}
		if rp.transferDebt > 0 {
			// Prefix KV imported from another replica pays its interconnect
			// time the same way.
			wall += rp.transferDebt
			rp.transferDebt = 0
		}
		time.Sleep(time.Duration(float64(wall) / rp.srv.cfg.Timescale))

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
// replica crashes), then drains the inbox into the scheduler in one swap.
// It returns false when the loop should stop.
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
	// Pin shared prefixes before the scheduler sees the requests: matched
	// tokens are credited as already prefilled (the chunk planners just
	// see less remaining work) and DRAM promotions accrue reload debt for
	// the next iteration's sleep. Planned cross-replica imports are
	// re-validated here — the source may have crashed or evicted since
	// submission — then credited like local hits, with the interconnect
	// time accrued as transfer debt.
	srv := rp.srv
	var hitCredit, moveCredit, reloadCredit, fallbacks int64
	rp.kvMu.Lock()
	for _, ad := range rp.drained {
		if len(ad.req.PrefixHashes) == 0 {
			continue
		}
		res := rp.kv.AcquirePrefix(ad.req.ID, ad.req.PrefixHashes)
		credit := res.HitTokens
		if ad.xferTokens > credit {
			if avail := srv.transferableMatch(ad.xferFrom, ad.req.PrefixHashes); avail > credit {
				imp := ad.xferTokens
				if avail < imp {
					imp = avail
				}
				moved := imp - credit
				credit = imp
				rp.transferDebt += time.Duration(srv.transferSeconds(moved) * float64(time.Second))
				moveCredit += int64(moved)
			} else {
				// Source gone: recompute instead. Never a silent drop — the
				// request simply keeps its full prefill work.
				fallbacks++
			}
		}
		ad.req.ApplyPrefixHit(credit)
		hitCredit += int64(credit)
		if res.ReloadTokens > 0 {
			reloadCredit += int64(res.ReloadTokens)
			rp.reloadDebt += time.Duration(rp.kv.ReloadSeconds(res.ReloadTokens) * float64(time.Second))
		}
	}
	if srv.prefixIdx != nil {
		rp.publishIndexLocked()
	}
	rp.kvMu.Unlock()
	// Counter and snapshot publication is batched to one update per admit
	// cycle: the per-request Adds used to dominate the kvMu hold time on
	// bursty admission.
	if hitCredit > 0 {
		srv.prefixHits.Add(uint64(hitCredit))
		rp.snapPrefill.Add(-hitCredit)
	}
	if moveCredit > 0 {
		srv.prefixTransferTokens.Add(uint64(moveCredit))
	}
	if reloadCredit > 0 {
		srv.reloadTokens.Add(uint64(reloadCredit))
	}
	if fallbacks > 0 {
		srv.transferFallbacks.Add(uint64(fallbacks))
	}
	now := rp.srv.vnow()
	rp.mu.Lock()
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
		rp.scheduler.Add(ad.req, now)
	}
	rp.mu.Unlock()
	rp.active += len(rp.drained)
	for i := range rp.drained {
		rp.drained[i] = admission{} // release references, keep capacity
	}
	return true
}

// completeLocked performs the post-execution phase of one iteration: token
// accounting, lifetime counters, the histogram shard, and event assembly
// into the loop-owned outbox. No channel operation happens here — flush
// delivers the outbox after mu is released — and the steady state
// allocates nothing (TestServeSteadyStateAllocFree).
//
//qoserve:hotpath
//qoserve:locked mu
func (rp *gatewayReplica) completeLocked(b sched.Batch, exec, end sim.Time) {
	srv := rp.srv
	srv.iterations.Add(1)
	srv.tokens.Add(uint64(b.NewTokens()))
	srv.prefillTokens.Add(uint64(b.PrefillTokens()))
	srv.decodeTokens.Add(uint64(len(b.Decodes)))
	rp.hist.observe(exec.Seconds())
	decodes, sumCtx, maxCtx := 0, 0, 0
	var dPrefill, dQueued int64
	for _, p := range b.Prefill {
		dPrefill += int64(p.Tokens)
		before := p.Req.DecodedTokens
		p.Req.RecordPrefill(p.Tokens, end)
		if p.Req.DecodedTokens > before {
			dQueued++
			if h, ok := rp.pending[p.Req.ID]; ok {
				// Disagg prefill clone finished: hand the original off to
				// its decode home instead of streaming a token.
				rp.handoffQ = append(rp.handoffQ, h)
			} else {
				rp.stageEvent(p.Req, end)
			}
		}
		if len(p.Req.PrefixHashes) > 0 && p.Req.Phase() == request.Done {
			rp.releaseQ = append(rp.releaseQ, p.Req.ID)
		}
		if p.Req.Phase() == request.Decode {
			decodes++
			c := p.Req.ContextLen()
			sumCtx += c
			if c > maxCtx {
				maxCtx = c
			}
		}
	}
	for _, d := range b.Decodes {
		d.RecordDecodeToken(end)
		rp.stageEvent(d, end)
		if len(d.PrefixHashes) > 0 && d.Phase() == request.Done {
			rp.releaseQ = append(rp.releaseQ, d.ID)
		}
		if d.Phase() != request.Done {
			decodes++
			c := d.ContextLen()
			sumCtx += c
			if c > maxCtx {
				maxCtx = c
			}
		}
	}
	// Load-snapshot publication is batched: one Add per gauge per
	// iteration instead of one per request.
	if dPrefill != 0 {
		rp.snapPrefill.Add(-dPrefill)
	}
	if dQueued != 0 {
		rp.snapQueued.Add(-dQueued)
	}
	rp.snapDecodes.Store(int64(decodes))
	rp.snapSumCtx.Store(int64(sumCtx))
	rp.snapMaxCtx.Store(int64(maxCtx))
	if pt := b.PrefillTokens(); pt > 0 {
		rp.snapChunk.Store(int64(pt))
	}
	rp.scheduler.OnBatchComplete(b, end)
}

// stageEvent queues the request's newest token for delivery after mu is
// released. Unbatched streams get one outbox delivery per token; batched
// streams append to the entry's staged frame (evicting the oldest staged
// event when the frame is full and the final token must fit).
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
	if e.frames == nil {
		rp.outbox = append(rp.outbox, delivery{events: e.events, ev: ev, id: r.ID})
		if done {
			rp.finalQ = append(rp.finalQ, e)
		}
		return
	}
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

// flush delivers the staged outbox without holding any lock (unbatched
// mode only; batched delivery is flushFrames). Full buffers drop
// intermediate token events (counted in droppedEvents) but never the
// final one: a finished stream always observes Done, then close.
//
//qoserve:hotpath
func (rp *gatewayReplica) flush() {
	for i := range rp.outbox {
		d := &rp.outbox[i]
		if !d.ev.Done {
			select {
			case d.events <- d.ev:
			default:
				rp.srv.droppedEvents.Add(1)
			}
			continue
		}
		rp.sendFinal(d.events, d.ev)
		close(d.events)
		delete(rp.streams, d.id)
		rp.active--
		rp.load.Add(-1)
		if rp.srv.inFlight.Add(-1) == 0 {
			rp.srv.kickDrain()
		}
	}
	for i := range rp.outbox {
		rp.outbox[i] = delivery{} // release channel references
	}
	rp.outbox = rp.outbox[:0]
}

// sendFinal delivers ev even on a full buffer by evicting the oldest
// undelivered events. The serving loop is the only sender and consumers
// only receive, so eviction makes room and the loop terminates. Delivering
// the final event is what completes a request, so this is the gateway's
// outcome recorder.
//
//qoserve:hotpath
//qoserve:outcome complete
func (rp *gatewayReplica) sendFinal(events chan Event, ev Event) {
	for {
		select {
		case events <- ev:
			return
		default:
		}
		select {
		case <-events:
			rp.srv.droppedEvents.Add(1)
		default:
		}
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
	sum := s.summary(vnow)
	return Stats{
		VirtualNow:    vnow.Duration(),
		Pending:       int(s.inFlight.Load()),
		Served:        int(s.accepted.Load()),
		Iterations:    s.iterations.Load(),
		Tokens:        s.tokens.Load(),
		ViolationRate: sum.ViolationRate(metrics.All),
		DroppedEvents: s.droppedEvents.Load(),
		Replicas:      len(s.reps),
	}
}

// summary builds a metrics summary over every accepted request: finished
// outcomes from the ledger plus a consistent scan of the live set. It
// takes every replica's scheduler lock (in index order) so live request
// state cannot mutate mid-scan, then finMu (a leaf lock) so no request
// retires or recycles during the read; only /metrics and /v1/stats call
// it, and they tolerate the brief stall.
func (s *Server) summary(vnow sim.Time) *metrics.Summary {
	for _, rp := range s.reps {
		rp.mu.Lock()
	}
	s.finMu.Lock()
	live := make([]*request.Request, 0, len(s.live))
	for _, r := range s.live {
		live = append(live, r)
	}
	sum := metrics.MixedSummary(s.doneOut, live, vnow, len(s.reps))
	s.finMu.Unlock()
	for i := len(s.reps) - 1; i >= 0; i-- {
		s.reps[i].mu.Unlock()
	}
	return sum
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
}

// KVStats snapshots the prefix caches, probing each replica in turn.
func (s *Server) KVStats() KVStats {
	st := KVStats{
		PrefixHitTokens:      s.prefixHits.Load(),
		ReloadTokens:         s.reloadTokens.Load(),
		PrefixTransferTokens: s.prefixTransferTokens.Load(),
		TransferFallbacks:    s.transferFallbacks.Load(),
	}
	for _, rp := range s.reps {
		rp.kvMu.Lock()
		h, d := rp.kv.CachedBlocks()
		st.CachedHBMBlocks += h
		st.CachedDRAMBlocks += d
		hb, db := rp.kv.TierEvictions()
		st.HBMEvictions += hb
		st.DRAMEvictions += db
		st.Demotions += rp.kv.Demotions()
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
	qr, ok := rp.scheduler.(sched.QueueReporter)
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
	return rp.scheduler.Name()
}

// relegations sums eager-relegation counts over replicas; reported is
// false when no scheduler exposes them.
func (s *Server) relegations() (total int, reported bool) {
	for _, rp := range s.reps {
		rp.mu.Lock()
		if rc, ok := rp.scheduler.(interface{ Relegations() int }); ok {
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
